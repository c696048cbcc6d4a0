package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBuilderDedupAndLoops(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(0, 1)
	b.AddEdge(2, 2) // self-loop dropped
	b.AddEdge(2, 3)
	g := b.Build()
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || !g.HasEdge(2, 3) {
		t.Fatal("expected edges missing")
	}
	if g.HasEdge(2, 2) || g.HasEdge(0, 2) {
		t.Fatal("unexpected edges present")
	}
	if g.Degree(0) != 1 || g.Degree(2) != 1 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(0), g.Degree(2))
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := GNP(50, 0.1, rng)
	es := g.Edges()
	if len(es) != g.M() {
		t.Fatalf("Edges len %d != M %d", len(es), g.M())
	}
	b := NewBuilder(g.N())
	for _, e := range es {
		b.AddEdge(int(e.U), int(e.V))
	}
	h := b.Build()
	if h.M() != g.M() {
		t.Fatalf("round trip lost edges: %d vs %d", h.M(), g.M())
	}
	for _, e := range es {
		if !h.HasEdge(int(e.U), int(e.V)) {
			t.Fatalf("edge %v lost", e)
		}
	}
}

func TestBFSPathDistances(t *testing.T) {
	g := Path(10)
	res := g.BFS(0)
	for v := 0; v < 10; v++ {
		if res.Dist[v] != v {
			t.Fatalf("dist[%d] = %d, want %d", v, res.Dist[v], v)
		}
	}
	if res.Parent[0] != -1 || res.Parent[5] != 4 {
		t.Fatalf("parents wrong: %v", res.Parent)
	}
}

func TestBFSWithinRestriction(t *testing.T) {
	g := Cycle(10)
	allowed := make([]bool, 10)
	for i := 0; i < 5; i++ {
		allowed[i] = true
	}
	res := g.BFSWithin(0, allowed)
	if res.Dist[4] != 4 {
		t.Fatalf("dist[4] = %d, want 4 (wrap-around must be blocked)", res.Dist[4])
	}
	if res.Dist[7] != -1 {
		t.Fatalf("node 7 should be unreachable, dist %d", res.Dist[7])
	}
}

func TestComponents(t *testing.T) {
	g := DisjointUnion(Cycle(3), Path(4), Star(5))
	comp, k := g.Components()
	if k != 3 {
		t.Fatalf("components = %d, want 3", k)
	}
	if comp[0] != comp[2] || comp[3] != comp[6] || comp[7] != comp[11] {
		t.Fatalf("component assignment wrong: %v", comp)
	}
	if comp[0] == comp[3] || comp[3] == comp[7] {
		t.Fatalf("distinct components merged: %v", comp)
	}
	if g.IsConnected() {
		t.Fatal("disjoint union must not be connected")
	}
}

func TestDiameter(t *testing.T) {
	if d := Path(10).Diameter(); d != 9 {
		t.Fatalf("path diameter %d, want 9", d)
	}
	if d := Cycle(10).Diameter(); d != 5 {
		t.Fatalf("cycle diameter %d, want 5", d)
	}
	if d := Complete(6).Diameter(); d != 1 {
		t.Fatalf("K6 diameter %d, want 1", d)
	}
	if d := Grid(4, 7).Diameter(); d != 9 {
		t.Fatalf("grid diameter %d, want 9", d)
	}
}

func TestTreeForestPredicates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := RandomTree(40, rng)
	if !tr.IsTree() || !tr.IsForest() {
		t.Fatal("random tree must be tree and forest")
	}
	f := DisjointUnion(RandomTree(10, rng), RandomTree(7, rng))
	if f.IsTree() || !f.IsForest() {
		t.Fatal("two trees: forest but not tree")
	}
	c := Cycle(5)
	if c.IsTree() || c.IsForest() {
		t.Fatal("cycle is neither tree nor forest")
	}
}

func TestBipartite(t *testing.T) {
	if !Grid(5, 6).IsBipartite() {
		t.Fatal("grid is bipartite")
	}
	if !Cycle(8).IsBipartite() {
		t.Fatal("even cycle is bipartite")
	}
	if Cycle(7).IsBipartite() {
		t.Fatal("odd cycle is not bipartite")
	}
	e, odd := Cycle(7).OddCycleEdge()
	if !odd {
		t.Fatal("want odd cycle edge")
	}
	if !Cycle(7).HasEdge(int(e.U), int(e.V)) {
		t.Fatalf("reported edge %v not in graph", e)
	}
	rng := rand.New(rand.NewSource(3))
	g := GridWithOddChords(6, 6, 3, rng)
	if g.IsBipartite() {
		t.Fatal("grid with odd chords must not be bipartite")
	}
}

func TestGirth(t *testing.T) {
	if g := Cycle(9).Girth(20); g != 9 {
		t.Fatalf("girth of C9 = %d, want 9", g)
	}
	if g := Path(9).Girth(20); g != -1 {
		t.Fatalf("girth of path = %d, want -1", g)
	}
	if g := Complete(5).Girth(20); g != 3 {
		t.Fatalf("girth of K5 = %d, want 3", g)
	}
	if g := CompleteBipartite(3, 3).Girth(20); g != 4 {
		t.Fatalf("girth of K33 = %d, want 4", g)
	}
	// Bounded search must not report cycles above the bound.
	if g := Cycle(9).Girth(5); g != -1 {
		t.Fatalf("bounded girth of C9 = %d, want -1", g)
	}
}

func TestShortestCycleThrough(t *testing.T) {
	g := Cycle(6)
	if c := g.ShortestCycleThrough(0, 1, 10); c != 6 {
		t.Fatalf("cycle through C6 edge = %d, want 6", c)
	}
	tr := Path(5)
	if c := tr.ShortestCycleThrough(1, 2, 10); c != -1 {
		t.Fatalf("tree edge must report -1, got %d", c)
	}
	if c := tr.ShortestCycleThrough(0, 4, 10); c != -1 {
		t.Fatalf("non-edge must report -1, got %d", c)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Grid(3, 3)
	sub, orig := g.InducedSubgraph([]int{0, 1, 3, 4})
	if sub.N() != 4 || sub.M() != 4 {
		t.Fatalf("2x2 induced subgrid: n=%d m=%d, want 4,4", sub.N(), sub.M())
	}
	for i, v := range orig {
		if i > 0 && orig[i-1] >= v {
			t.Fatal("orig mapping must be sorted")
		}
	}
}

func TestDegeneracy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Planar graphs have degeneracy <= 5.
	g := MaximalPlanar(200, rng)
	order, d := g.DegeneracyOrder()
	if len(order) != g.N() {
		t.Fatalf("order covers %d of %d nodes", len(order), g.N())
	}
	if d > 5 {
		t.Fatalf("planar degeneracy %d > 5", d)
	}
	// Trees have degeneracy 1.
	if _, d := RandomTree(100, rng).DegeneracyOrder(); d != 1 {
		t.Fatalf("tree degeneracy %d, want 1", d)
	}
	// K6 has degeneracy 5.
	if _, d := Complete(6).DegeneracyOrder(); d != 5 {
		t.Fatalf("K6 degeneracy %d, want 5", d)
	}
}

func TestRemoveAddEdges(t *testing.T) {
	g := Cycle(5)
	h := g.RemoveEdges([]Edge{NormEdge(0, 1), NormEdge(3, 2)})
	if h.M() != 3 {
		t.Fatalf("after removal m=%d, want 3", h.M())
	}
	h2 := h.AddEdges([]Edge{NormEdge(0, 1)})
	if h2.M() != 4 || !h2.HasEdge(0, 1) {
		t.Fatal("AddEdges failed")
	}
}

func TestGeneratorSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		name string
		g    *Graph
		n, m int
	}{
		{"path", Path(8), 8, 7},
		{"cycle", Cycle(8), 8, 8},
		{"star", Star(8), 8, 7},
		{"K5", Complete(5), 5, 10},
		{"K33", CompleteBipartite(3, 3), 6, 9},
		{"grid", Grid(4, 5), 20, 31},
		{"tree", RandomTree(30, rng), 30, 29},
		{"maxplanar", MaximalPlanar(30, rng), 30, 84},
		{"outerplanar", Outerplanar(30, rng), 30, 57}, // 2n-3
	}
	for _, c := range cases {
		if c.g.N() != c.n || c.g.M() != c.m {
			t.Errorf("%s: n=%d m=%d, want n=%d m=%d", c.name, c.g.N(), c.g.M(), c.n, c.m)
		}
	}
}

func TestCorpusFamilyGenerators(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		n, m int
	}{
		{"ladder", Ladder(6), 12, 16},                  // 3k-2
		{"ladder-k1", Ladder(1), 2, 1},                 // single rung
		{"circular-ladder", CircularLadder(6), 12, 18}, // 3k
		{"barbell-4-4", Barbell(4, 4), 12, 17},         // 2*C(4,2)+p+1
		{"barbell-5-0", Barbell(5, 0), 10, 21},         // two K5s + bridge
		{"lollipop-4-5", Lollipop(4, 5), 9, 11},        // C(4,2)+p
		{"lollipop-5-2", Lollipop(5, 2), 7, 12},
		{"balanced-tree-2-3", BalancedTree(2, 3), 15, 14},
		{"balanced-tree-3-0", BalancedTree(3, 0), 1, 0},
		{"k33-subdiv-6", K33Subdivision(6), 6, 9},
		{"k33-subdiv-20", K33Subdivision(20), 20, 23}, // m = n+3
	}
	for _, c := range cases {
		if c.g.N() != c.n || c.g.M() != c.m {
			t.Errorf("%s: n=%d m=%d, want n=%d m=%d", c.name, c.g.N(), c.g.M(), c.n, c.m)
		}
	}
	// Structural spot checks beyond edge counts.
	if !CircularLadder(8).IsConnected() {
		t.Error("circular ladder must be connected")
	}
	for _, k := range []int{3, 5, 8} {
		cl := CircularLadder(k)
		for v := 0; v < cl.N(); v++ {
			if cl.Degree(v) != 3 {
				t.Fatalf("circular ladder CL_%d: degree(%d)=%d, want 3", k, v, cl.Degree(v))
			}
		}
	}
	if bt := BalancedTree(3, 4); !bt.IsTree() {
		t.Error("balanced tree must be a tree")
	}
	if !Barbell(5, 3).IsConnected() || !Lollipop(5, 7).IsConnected() {
		t.Error("barbell/lollipop must be connected")
	}
	if g := K33Subdivision(33); !g.IsConnected() {
		t.Error("K33 subdivision must be connected")
	}
}

func TestRandomPlanarSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, m := range []int{29, 40, 60, 84} {
		g := RandomPlanar(30, m, rng)
		if g.N() != 30 || g.M() != m {
			t.Fatalf("RandomPlanar(30,%d): n=%d m=%d", m, g.N(), g.M())
		}
		if !g.IsConnected() {
			t.Fatalf("RandomPlanar(30,%d) must be connected", m)
		}
	}
}

func TestGNPStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 500
	p := 0.02
	total := 0
	const reps = 20
	for i := 0; i < reps; i++ {
		total += GNP(n, p, rng).M()
	}
	mean := float64(total) / reps
	want := p * float64(n*(n-1)) / 2
	if mean < 0.85*want || mean > 1.15*want {
		t.Fatalf("GNP mean edges %.1f, want about %.1f", mean, want)
	}
	if GNP(10, 0, rng).M() != 0 {
		t.Fatal("GNP p=0 must be empty")
	}
	if GNP(10, 1, rng).M() != 45 {
		t.Fatal("GNP p=1 must be complete")
	}
}

func TestPlanarPlusRandomEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g, dist := PlanarPlusRandomEdges(50, 30, rng)
	if g.M() != 3*50-6+30 {
		t.Fatalf("m = %d, want %d", g.M(), 3*50-6+30)
	}
	if dist != 30 {
		t.Fatalf("certified distance %d, want 30", dist)
	}
}

func TestEulerDistanceLowerBound(t *testing.T) {
	if d := EulerDistanceLowerBound(Complete(5)); d != 10-9 {
		t.Fatalf("K5 distance bound %d, want 1", d)
	}
	rng := rand.New(rand.NewSource(9))
	if d := EulerDistanceLowerBound(MaximalPlanar(40, rng)); d != 0 {
		t.Fatalf("maximal planar bound %d, want 0", d)
	}
	if d := EulerDistanceLowerBound(Path(2)); d != 0 {
		t.Fatalf("tiny graph bound %d, want 0", d)
	}
}

func TestShuffleIsomorphism(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := Grid(5, 5)
	h, perm := Shuffle(g, rng)
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatal("shuffle changed size")
	}
	for _, e := range g.Edges() {
		if !h.HasEdge(perm[e.U], perm[e.V]) {
			t.Fatalf("edge %v lost under permutation", e)
		}
	}
}

func TestConnectParts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := DisjointUnion(Cycle(4), Cycle(4), Path(3))
	h := ConnectParts(g, rng)
	if !h.IsConnected() {
		t.Fatal("ConnectParts must connect")
	}
	if h.M() != g.M()+2 {
		t.Fatalf("added %d edges, want 2", h.M()-g.M())
	}
}

func TestRemoveShortCycles(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := GNP(400, 8.0/400, rng)
	minG := 5
	h, removed := RemoveShortCycles(g, minG)
	if h.M()+removed != g.M() {
		t.Fatalf("edge accounting: %d + %d != %d", h.M(), removed, g.M())
	}
	if girth := h.Girth(minG - 1); girth != -1 {
		t.Fatalf("cycle of length %d survived surgery (minGirth %d)", girth, minG)
	}
	// Dense-enough graphs must retain most edges.
	if h.M() < g.M()/2 {
		t.Fatalf("surgery removed too much: %d -> %d", g.M(), h.M())
	}
}

func TestRemoveShortCyclesOnTriangleGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := MaximalPlanar(50, rng) // lots of triangles
	h, _ := RemoveShortCycles(g, 4)
	if h.Girth(3) != -1 {
		t.Fatal("triangles must be gone")
	}
}

// crossEdges counts the edges of g whose endpoints lie in different
// parts, walking the adjacency lists directly.
func crossEdges(g *Graph, part []int) int {
	n := 0
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(v) {
			if int(w) > v && part[v] != part[w] {
				n++
			}
		}
	}
	return n
}

// Property: for random graphs, the partition into connected components
// cuts no edge, and neither does the all-same partition.
func TestQuotientProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := GNP(60, 0.05, rng)
		comp, _ := g.Components()
		if CutSize(g, comp) != 0 || crossEdges(g, comp) != 0 {
			return false
		}
		same := make([]int, g.N())
		return CutSize(g, same) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: CutSize equals a direct count of cross-part edges for random
// partitions.
func TestCutSizePartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := GNP(50, 0.1, rng)
		part := make([]int, g.N())
		for i := range part {
			part[i] = rng.Intn(5)
		}
		return CutSize(g, part) == crossEdges(g, part)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestK5Subdivision(t *testing.T) {
	for _, n := range []int{5, 6, 17, 100} {
		g := K5Subdivision(n)
		if g.N() != n {
			t.Fatalf("n=%d: got %d nodes", n, g.N())
		}
		if g.M() != n+5 {
			t.Fatalf("n=%d: got %d edges, want %d", n, g.M(), n+5)
		}
		if !g.IsConnected() {
			t.Fatalf("n=%d: not connected", n)
		}
		// The five branch nodes keep degree 4; every subdivision node has
		// degree 2.
		for v := 0; v < n; v++ {
			want := 2
			if v < 5 {
				want = 4
			}
			if g.Degree(v) != want {
				t.Fatalf("n=%d: node %d degree %d, want %d", n, v, g.Degree(v), want)
			}
		}
	}
}
