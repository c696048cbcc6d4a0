package partition

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func mustStageI(t *testing.T, g *graph.Graph, opts Options, seed int64) ([]*Outcome, []int64) {
	t.Helper()
	outs, ids, _, err := CollectStageI(g, opts, seed)
	if err != nil {
		t.Fatalf("stage I run failed: %v", err)
	}
	return outs, ids
}

func finalDiamBound(outs []*Outcome) int {
	maxPhase := 0
	for _, o := range outs {
		if o.PhasesRun > maxPhase {
			maxPhase = o.PhasesRun
		}
	}
	return DiamBound(maxPhase + 1)
}

func TestStageIOnPlanarFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	opts := Options{Epsilon: 0.5}
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid(6, 7)},
		{"cycle", graph.Cycle(30)},
		{"tree", graph.RandomTree(40, rng)},
		{"maxplanar", graph.MaximalPlanar(40, rng)},
		{"path", graph.Path(25)},
		{"outerplanar", graph.Outerplanar(30, rng)},
	}
	for _, c := range cases {
		outs, ids := mustStageI(t, c.g, opts, 7)
		if AnyRejected(outs) {
			t.Errorf("%s: Stage I rejected a planar graph (one-sidedness violated)", c.name)
			continue
		}
		if err := ValidateOutcomes(c.g, ids, outs, finalDiamBound(outs)); err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		// Claim 3: when Stage I completes, the cut is at most eps*m/2.
		cut := CutEdges(c.g, outs)
		if float64(cut) > opts.Epsilon*float64(c.g.M())/2 {
			t.Errorf("%s: cut %d > eps*m/2 = %.1f", c.name, cut, opts.Epsilon*float64(c.g.M())/2)
		}
	}
}

func TestStageIMergesConnectedPlanarFully(t *testing.T) {
	// With the paper schedule and a planar input, parts keep merging; a
	// small connected graph ends as a single part (cut 0, early exit).
	g := graph.Grid(5, 5)
	outs, _ := mustStageI(t, g, Options{Epsilon: 0.25}, 3)
	if NumParts(outs) != 1 {
		t.Fatalf("parts = %d, want 1", NumParts(outs))
	}
	if CutEdges(g, outs) != 0 {
		t.Fatal("single part must have zero cut")
	}
	for _, o := range outs {
		if !o.EarlyExit {
			t.Fatal("fully merged part must exit early")
		}
	}
}

func TestStageIRejectsDenseCore(t *testing.T) {
	// K11 has arboricity 6 > 3: the first forest-decomposition step must
	// leave active nodes, producing reject evidence.
	g := graph.Complete(11)
	_, _, res, err := CollectStageI(g, Options{Epsilon: 0.5}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rejected() {
		t.Fatal("K11 must produce arboricity evidence")
	}
}

func TestStageIRejectsEmbeddedDenseCore(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.ConnectParts(graph.DisjointUnion(graph.Grid(8, 8), graph.Complete(12)), rng)
	_, _, res, err := CollectStageI(g, Options{Epsilon: 0.5}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rejected() {
		t.Fatal("hidden K12 must produce arboricity evidence")
	}
}

func TestStageIDisconnectedGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.DisjointUnion(graph.Grid(4, 4), graph.Cycle(9), graph.RandomTree(12, rng))
	outs, ids := mustStageI(t, g, Options{Epsilon: 0.25}, 8)
	if AnyRejected(outs) {
		t.Fatal("planar components must not reject")
	}
	if err := ValidateOutcomes(g, ids, outs, finalDiamBound(outs)); err != nil {
		t.Fatal(err)
	}
	// Components never merge with each other.
	comp, _ := g.Components()
	for v := 0; v < g.N(); v++ {
		for w := v + 1; w < g.N(); w++ {
			if outs[v].RootID == outs[w].RootID && comp[v] != comp[w] {
				t.Fatal("parts crossed component boundaries")
			}
		}
	}
}

func TestStageIDeterminism(t *testing.T) {
	g := graph.Grid(5, 6)
	outs1, _ := mustStageI(t, g, Options{Epsilon: 0.25}, 11)
	outs2, _ := mustStageI(t, g, Options{Epsilon: 0.25}, 11)
	for v := range outs1 {
		if outs1[v].RootID != outs2[v].RootID || outs1[v].PhasesRun != outs2[v].PhasesRun {
			t.Fatalf("node %d: outcomes differ across identical runs", v)
		}
	}
}

func TestStageIPhaseProgress(t *testing.T) {
	// Parts must shrink in number as phases proceed; at least the node
	// count must drop below n after phase 1 on a cycle (every aux node
	// has out-degree and merging contracts something).
	g := graph.Cycle(24)
	outs, _ := mustStageI(t, g, Options{Epsilon: 0.5}, 13)
	if NumParts(outs) >= g.N() {
		t.Fatalf("no merging happened: %d parts", NumParts(outs))
	}
}

func TestStageIRandomizedVariant(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cases := []*graph.Graph{
		graph.Grid(5, 5),
		graph.MaximalPlanar(35, rng),
		graph.RandomTree(30, rng),
	}
	opts := Options{Epsilon: 0.5, Variant: Randomized, Delta: 0.125}
	for i, g := range cases {
		outs, ids, _, err := CollectStageI(g, opts, int64(20+i))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if AnyRejected(outs) {
			t.Fatalf("case %d: randomized variant rejected (it has no reject path)", i)
		}
		if err := ValidateOutcomes(g, ids, outs, finalDiamBound(outs)); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
	}
}

func TestStageIRandomizedCutBound(t *testing.T) {
	// Theorem 4 (minor-free promise): with probability 1-delta the cut is
	// at most eps*n... we assert the weaker empirical property that most
	// seeds achieve it.
	g := graph.Grid(8, 8)
	eps := 0.5
	good := 0
	const seeds = 6
	for s := int64(0); s < seeds; s++ {
		outs, _, _, err := CollectStageI(g, Options{Epsilon: eps, Variant: Randomized}, 100+s)
		if err != nil {
			t.Fatal(err)
		}
		if float64(CutEdges(g, outs)) <= eps*float64(g.N()) {
			good++
		}
	}
	if good < seeds-1 {
		t.Fatalf("cut bound met on only %d/%d seeds", good, seeds)
	}
}

func TestStageIPracticalSchedule(t *testing.T) {
	g := graph.Grid(6, 6)
	opts := Options{Epsilon: 0.25, Schedule: PracticalSchedule}
	outs, ids := mustStageI(t, g, opts, 15)
	if AnyRejected(outs) {
		t.Fatal("planar graph rejected")
	}
	if err := ValidateOutcomes(g, ids, outs, finalDiamBound(outs)); err != nil {
		t.Fatal(err)
	}
}

func TestElkinNeimanBaseline(t *testing.T) {
	g := graph.Grid(10, 10)
	eps := 0.4
	outs, ids, res, err := CollectEN(g, eps, 17)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateOutcomes(g, ids, outs, 0); err != nil {
		t.Fatal(err)
	}
	// Diameter bound O(log n / eps): flooding lasts at most 2*cap rounds,
	// so cluster radius <= 2*cap.
	capR := ENShiftCap(g.N(), eps/2)
	if d := MaxPartDiameter(g, outs); d > 4*capR {
		t.Fatalf("EN part diameter %d > %d", d, 4*capR)
	}
	// Rounds are O(log n / eps), far below Stage I budgets.
	if res.Metrics.Rounds > 10*capR {
		t.Fatalf("EN used %d rounds, cap is %d", res.Metrics.Rounds, 10*capR)
	}
	// Cut is eps*m in expectation; allow generous slack.
	if cut := CutEdges(g, outs); float64(cut) > 3*eps*float64(g.M()) {
		t.Fatalf("EN cut %d too large (m=%d, eps=%.2f)", cut, g.M(), eps)
	}
}

func TestElkinNeimanStatisticalCut(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	g := graph.Grid(12, 12)
	eps := 0.3
	total := 0
	const seeds = 8
	for s := int64(0); s < seeds; s++ {
		outs, _, _, err := CollectEN(g, eps, 200+s)
		if err != nil {
			t.Fatal(err)
		}
		total += CutEdges(g, outs)
	}
	mean := float64(total) / seeds
	if mean > 2*eps*float64(g.M()) {
		t.Fatalf("mean EN cut %.1f exceeds 2*eps*m = %.1f", mean, 2*eps*float64(g.M()))
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{Epsilon: 0.1}.withDefaults()
	if o.Alpha != 3 || o.Variant != Deterministic || o.Schedule != PaperSchedule {
		t.Fatalf("bad defaults: %+v", o)
	}
	if o.Phases() < 36 {
		t.Fatalf("paper schedule phases %d too small for eps=0.1", o.Phases())
	}
	p := Options{Epsilon: 0.1, Schedule: PracticalSchedule}.withDefaults()
	if p.Phases() > 10 {
		t.Fatalf("practical schedule phases %d too large", p.Phases())
	}
}

func TestDiamBound(t *testing.T) {
	// d_i = 3^(i-1) - 1.
	want := []int{0, 2, 8, 26, 80}
	for i, w := range want {
		if d := DiamBound(i + 1); d != w {
			t.Fatalf("DiamBound(%d) = %d, want %d", i+1, d, w)
		}
	}
	// Cap prevents overflow.
	if DiamBound(100) != diamCap {
		t.Fatal("DiamBound must saturate at the cap")
	}
}

func TestStageIBitBoundRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.MaximalPlanar(30, rng)
	_, _, res, err := CollectStageI(g, Options{Epsilon: 0.5}, 23)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.MaxMessageBits > res.Metrics.BitBound {
		t.Fatalf("message of %d bits exceeded bound %d", res.Metrics.MaxMessageBits, res.Metrics.BitBound)
	}
}

func TestStageILargerGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("larger run")
	}
	g := graph.Grid(12, 12)
	outs, ids := mustStageI(t, g, Options{Epsilon: 0.25}, 29)
	if AnyRejected(outs) {
		t.Fatal("planar graph rejected")
	}
	if err := ValidateOutcomes(g, ids, outs, finalDiamBound(outs)); err != nil {
		t.Fatal(err)
	}
	cut := CutEdges(g, outs)
	if float64(cut) > 0.25*float64(g.M())/2 {
		t.Fatalf("cut %d exceeds eps*m/2", cut)
	}
}

// TestStageIStepValidates runs Stage I on a larger grid and
// checks the structural partition guarantees end to end.
func TestStageIStepValidates(t *testing.T) {
	g := graph.Grid(10, 10)
	opts := Options{Epsilon: 0.25, Schedule: PracticalSchedule}
	outs, ids, res, err := CollectStageI(g, opts, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected() {
		t.Fatal("planar grid rejected by Stage I")
	}
	if err := ValidateOutcomes(g, ids, outs, 0); err != nil {
		t.Fatal(err)
	}
}

// planRoundBound is the round count of the first phases of pl's schedule
// as the interpreter runs it: every op lasts to its deadline, one round
// for a boundary exchange or a cross round and the phase budget for a
// broadcast, a convergecast or the flip window.
func planRoundBound(pl *StageIPlan, phases int) int64 {
	var total int64
	for p := 1; p <= phases; p++ {
		budget := int64(phaseBudget(p))
		for _, op := range pl.ops {
			if op.kind == sBoundary || op.kind == sCross {
				total++
			} else {
				total += budget
			}
		}
	}
	return total
}

// TestStageIRoundBound asserts Theorem 1's Stage I round bound (Theorem 3
// for the deterministic variant, Theorem 4 for the randomized one) on the
// E1 grids. A run, with its fast-forward windows and early exit, runs at
// most the schedule's phase count, and takes at most the rounds of the
// compiled schedule's phases it ran.
func TestStageIRoundBound(t *testing.T) {
	for _, c := range []struct {
		name  string
		v     Variant
		sched Schedule
	}{
		{"deterministic/paper", Deterministic, PaperSchedule},
		{"deterministic/practical", Deterministic, PracticalSchedule},
		{"randomized/paper", Randomized, PaperSchedule},
		{"randomized/practical", Randomized, PracticalSchedule},
	} {
		for _, side := range []int{8, 12, 16} {
			g := graph.Grid(side, side)
			opts := Options{Epsilon: 0.25, Variant: c.v, Schedule: c.sched}
			outs, _, res, err := CollectStageI(g, opts, 1)
			if err != nil {
				t.Fatal(err)
			}
			pl := NewStageIPlan(opts, g.N())
			ran := 0
			for _, o := range outs {
				ran = max(ran, o.PhasesRun)
			}
			if ran > pl.phases {
				t.Errorf("%s n=%d: %d phases run > the schedule's %d", c.name, g.N(), ran, pl.phases)
			}
			if bound := planRoundBound(pl, ran); int64(res.Metrics.Rounds) > bound {
				t.Errorf("%s n=%d: %d rounds > %d, the bound of the %d phases run",
					c.name, g.N(), res.Metrics.Rounds, bound, ran)
			}
		}
	}
}
