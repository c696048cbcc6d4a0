package planar

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// TestFaceLengthSum: the face boundary lengths of any embedding sum to
// the number of half-edges (2m).
func TestFaceLengthSum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		n := 10 + rng.Intn(40)
		m := n - 1 + rng.Intn(2*n-5)
		if m > 3*n-6 {
			m = 3*n - 6
		}
		g := graph.RandomPlanar(n, m, rng)
		emb, err := Embed(g)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		seen := make(map[[2]int32]bool)
		for v := 0; v < g.N(); v++ {
			for _, w := range emb.Rotation(v) {
				he := [2]int32{int32(v), w}
				if seen[he] {
					continue
				}
				face := emb.FaceOf(int32(v), w)
				total += len(face)
				cv, cw := int32(v), w
				for !seen[[2]int32{cv, cw}] {
					seen[[2]int32{cv, cw}] = true
					cv, cw = cw, emb.CCWNext(cw, cv)
				}
			}
		}
		if total != 2*g.M() {
			t.Fatalf("face length sum %d, want %d", total, 2*g.M())
		}
	}
}

// TestMirrorEmbeddingIsValid: reversing every rotation yields another
// valid planar embedding (orientation reversal).
func TestMirrorEmbeddingIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		g := graph.MaximalPlanar(10+rng.Intn(40), rng)
		emb, err := Embed(g)
		if err != nil {
			t.Fatal(err)
		}
		rot := make([][]int32, g.N())
		for v := 0; v < g.N(); v++ {
			r := emb.Rotation(v)
			for i, j := 0, len(r)-1; i < j; i, j = i+1, j-1 {
				r[i], r[j] = r[j], r[i]
			}
			rot[v] = r
		}
		mirror := NewEmbeddingFromRotations(rot)
		if err := mirror.Validate(g); err != nil {
			t.Fatalf("mirror embedding invalid: %v", err)
		}
	}
}

// TestTriangulatedGridPlanar: the denser planar family embeds and
// validates.
func TestTriangulatedGridPlanar(t *testing.T) {
	g := graph.TriangulatedGrid(8, 9)
	emb, err := Embed(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := emb.Validate(g); err != nil {
		t.Fatal(err)
	}
	if g.IsBipartite() {
		t.Fatal("triangulated grid must contain triangles")
	}
}

// Property: a random subgraph of a planar graph is planar (minor-closed
// under edge deletion) and the LR test agrees.
func TestPlanarityClosedUnderSubgraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.MaximalPlanar(30, rng)
		var drop []graph.Edge
		for _, e := range g.Edges() {
			if rng.Intn(3) == 0 {
				drop = append(drop, e)
			}
		}
		return IsPlanar(g.RemoveEdges(drop))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: contracting an edge of a planar graph keeps it planar
// (planarity is minor-closed); exercised by contracting one edge and
// rebuilding the graph.
func TestPlanarityClosedUnderContraction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.MaximalPlanar(20, rng)
		es := g.Edges()
		e := es[rng.Intn(len(es))]
		// Contract e.V into e.U.
		b := graph.NewBuilder(g.N())
		for _, f := range g.Edges() {
			u, v := int(f.U), int(f.V)
			if u == int(e.V) {
				u = int(e.U)
			}
			if v == int(e.V) {
				v = int(e.U)
			}
			b.AddEdge(u, v)
		}
		return IsPlanar(b.Build())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
