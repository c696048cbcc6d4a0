package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// refAdjacency is the sort-and-dedup reference for Builder.Build: every
// recorded edge in both orientations, self-loops dropped, each list
// sorted and deduplicated.
func refAdjacency(n int, edges [][2]int) [][]int32 {
	adj := make([][]int32, n)
	for _, e := range edges {
		if e[0] == e[1] {
			continue
		}
		adj[e[0]] = append(adj[e[0]], int32(e[1]))
		adj[e[1]] = append(adj[e[1]], int32(e[0]))
	}
	for v := range adj {
		slices.Sort(adj[v])
		adj[v] = slices.Compact(adj[v])
	}
	return adj
}

func checkAgainstRef(t *testing.T, n int, edges [][2]int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	want := refAdjacency(n, edges)
	if g.N() != n {
		t.Fatalf("N = %d, want %d", g.N(), n)
	}
	arcs := 0
	for v := 0; v < n; v++ {
		got := g.Neighbors(v)
		if !slices.Equal(got, want[v]) {
			t.Fatalf("n=%d node %d: neighbors %v, want %v", n, v, got, want[v])
		}
		if g.Degree(v) != len(want[v]) {
			t.Fatalf("n=%d node %d: degree %d, want %d", n, v, g.Degree(v), len(want[v]))
		}
		arcs += len(want[v])
	}
	if g.M() != arcs/2 {
		t.Fatalf("n=%d: M = %d, want %d", n, g.M(), arcs/2)
	}
	return g
}

// TestBuildMatchesSortReference compares the counting-sort CSR Build
// against the sort-and-dedup reference on random edge multisets with
// repeats, self-loops, both orientations, tiny n and trailing isolated
// nodes.
func TestBuildMatchesSortReference(t *testing.T) {
	checkAgainstRef(t, 0, nil)
	checkAgainstRef(t, 1, nil)
	checkAgainstRef(t, 1, [][2]int{{0, 0}, {0, 0}})
	checkAgainstRef(t, 2, [][2]int{{1, 0}, {0, 1}, {1, 0}})
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(40)
		span := n - rng.Intn(n/2+1) // endpoints below span: nodes >= span stay isolated
		var edges [][2]int
		for i, k := 0, rng.Intn(4*n); i < k; i++ {
			u, v := rng.Intn(span), rng.Intn(span)
			edges = append(edges, [2]int{u, v})
			switch rng.Intn(4) {
			case 0:
				edges = append(edges, [2]int{v, u}) // same edge, other orientation
			case 1:
				edges = append(edges, [2]int{u, v}) // exact repeat
			}
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		checkAgainstRef(t, n, edges)
	}
}

// TestBuildDoesNotConsumeBuilder checks that Build leaves the Builder
// usable: a second Build after more edges sees old and new edges.
func TestBuildDoesNotConsumeBuilder(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(2, 1)
	first := b.Build()
	b.AddEdge(3, 0)
	second := b.Build()
	if first.M() != 1 || second.M() != 2 || !second.HasEdge(1, 2) || !second.HasEdge(0, 3) {
		t.Fatalf("got %v then %v, want m=1 then m=2", first, second)
	}
}

// TestNeighborsAppendIsolated checks that a Neighbors slice is capped:
// appending to it must copy instead of overwriting the next node's
// list in the shared backing array.
func TestNeighborsAppendIsolated(t *testing.T) {
	g := Path(4) // 0-1-2-3
	before := slices.Clone(g.Neighbors(2))
	nb := g.Neighbors(1)
	if cap(nb) != len(nb) {
		t.Fatalf("Neighbors(1) has cap %d > len %d", cap(nb), len(nb))
	}
	_ = append(nb, 99)
	if got := g.Neighbors(2); !slices.Equal(got, before) {
		t.Fatalf("append to Neighbors(1) changed Neighbors(2): %v, want %v", got, before)
	}
	rp := g.RevPorts()
	_ = append(rp[1], 99)
	if rp[2][0] != 1 { // 2's first neighbour is 1, where 2 sits at port 1
		t.Fatalf("append to RevPorts()[1] changed RevPorts()[2]: %v", rp[2])
	}
}

// TestGrowNodes checks that GrowNodes only ever raises the node count.
func TestGrowNodes(t *testing.T) {
	b := NewBuilder(2)
	b.GrowNodes(5)
	b.AddEdge(0, 4)
	b.GrowNodes(3)
	if g := b.Build(); g.N() != 5 || !g.HasEdge(4, 0) {
		t.Fatalf("got %v, want n=5 with edge {0,4}", g)
	}
}

// BenchmarkBuild builds a maximal planar graph (n=10^5, m≈3·10^5) from
// its edge list.
func BenchmarkBuild(b *testing.B) {
	es := MaximalPlanar(100_000, rand.New(rand.NewSource(1))).Edges()
	rand.New(rand.NewSource(2)).Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bd := NewBuilder(100_000)
		for _, e := range es {
			bd.AddEdge(int(e.U), int(e.V))
		}
		bd.Build()
	}
}
