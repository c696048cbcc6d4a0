package repro

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lowerbound"
	"repro/internal/partition"
	"repro/internal/planar"
	"repro/internal/spanner"
	"repro/internal/testers"
)

// The paper is a theory paper with no empirical section: its results are
// bounds. TestPaperClaims runs one experiment per result (E1-E12 in
// DESIGN.md §4), asserts the result's bound on every row, and renders the
// rows as the committed table docs/claims.txt, which it compares byte for
// byte. The table holds only deterministic values, no timings, so it is
// the same at every GOMAXPROCS. Rewrite it with
//
//	go test . -run TestPaperClaims -update

var updateClaims = flag.Bool("update", false, "rewrite docs/claims.txt from this run")

const claimsFile = "docs/claims.txt"

// paperClaim is one experiment: run asserts its bound row by row (each
// t.Errorf names the experiment and the row) and fills tb.
type paperClaim struct {
	id, title string
	run       func(t *testing.T, tb *claimTable)
}

var paperClaims = []paperClaim{
	{"E1", "Theorem 1: rounds scale as O(log n) for fixed eps", claimE1},
	{"E2", "Theorem 1: one-sided error and detection rate", claimE2},
	{"E3", "Claims 1/14: per-phase cut-weight contraction", claimE3},
	{"E4", "Claim 4: part diameter vs the 3^k-1 bound", claimE4},
	{"E5", "Claim 3/Theorem 3: final cut vs eps*m/2", claimE5},
	{"E6", "Claims 8-10/Corollary 9: violating-edge counts", claimE6},
	{"E7", "Theorem 2: lower-bound instances", claimE7},
	{"E8", "Theorem 4: randomized partition tradeoff", claimE8},
	{"E9", "Corollary 16: cycle-freeness, bipartiteness, outerplanarity", claimE9},
	{"E10", "Corollary 17: ultra-sparse spanners", claimE10},
	{"E11", "Section 1.1: Stage I vs the Elkin-Neiman baseline", claimE11},
	{"E12", "CONGEST conformance: message sizes and traffic", claimE12},
}

// claimTable is one experiment's rendered output: a header row, data
// rows, and closing notes.
type claimTable struct {
	rows  [][]string
	notes []string
}

func (tb *claimTable) row(cols ...any) {
	r := make([]string, len(cols))
	for i, c := range cols {
		r[i] = fmt.Sprint(c)
	}
	tb.rows = append(tb.rows, r)
}

func (tb *claimTable) note(format string, args ...any) {
	tb.notes = append(tb.notes, fmt.Sprintf(format, args...))
}

func TestPaperClaims(t *testing.T) {
	var out bytes.Buffer
	for _, c := range paperClaims {
		tb := &claimTable{}
		c.run(t, tb)
		fmt.Fprintf(&out, "== %s: %s ==\n", c.id, c.title)
		w := tabwriter.NewWriter(&out, 0, 0, 2, ' ', 0)
		for _, r := range tb.rows {
			fmt.Fprintln(w, strings.Join(r, "\t"))
		}
		w.Flush()
		for _, n := range tb.notes {
			fmt.Fprintln(&out, n)
		}
		out.WriteByte('\n')
	}
	if *updateClaims {
		if err := os.WriteFile(claimsFile, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(claimsFile)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test . -run TestPaperClaims -update)", err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
			i++
		}
		line := func(ls []string) string {
			if i < len(ls) {
				return ls[i]
			}
			return "<end of file>"
		}
		t.Errorf("%s differs from this run at line %d:\n got: %s\nwant: %s\n(regenerate with: go test . -run TestPaperClaims -update)",
			claimsFile, i+1, line(gl), line(wl))
	}
}

func verdict(rejected bool) string {
	if rejected {
		return "REJECT"
	}
	return "accept"
}

// claimE1: the tester accepts planar grids under both schedules. With a
// fixed phase count (practical schedule) the n-dependence is the
// Θ(log n) super-round count, so rounds/log2(n) levels off. The paper
// schedule's phase count t(eps) hides a 4^t constant; with early exit
// the last phase's exponentially growing budget dominates instead. The
// round bound itself is TestStageIRoundBound (internal/partition).
func claimE1(t *testing.T, tb *claimTable) {
	const eps = 0.25
	tb.row("n", "m", "rounds(practical)", "per log2(n)", "rounds(paper, early exit)")
	for _, s := range []int{8, 12, 16} {
		g := graph.Grid(s, s)
		practical := core.Options{Epsilon: eps}
		practical.Partition = partition.Options{Epsilon: eps, Schedule: partition.PracticalSchedule}
		rf, err := core.RunTester(g, practical, 1)
		if err != nil {
			t.Fatal(err)
		}
		re, err := core.RunTester(g, core.Options{Epsilon: eps}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rf.Rejected || re.Rejected {
			t.Errorf("E1 n=%d: planar grid rejected (practical %v, paper %v)", g.N(), rf.Rejected, re.Rejected)
		}
		logn := math.Log2(float64(g.N()))
		tb.row(g.N(), g.M(), rf.Metrics.Rounds,
			fmt.Sprintf("%.0f", float64(rf.Metrics.Rounds)/logn), re.Metrics.Rounds)
	}
}

// claimE2: no planar input is ever rejected (one-sided error), and
// certified eps-far inputs are rejected with probability at least 2/3.
func claimE2(t *testing.T, tb *claimTable) {
	const seeds = 3
	rng := rand.New(rand.NewSource(2))
	planarInputs := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid 12x12", graph.Grid(12, 12)},
		{"maxplanar n=150", graph.MaximalPlanar(150, rng)},
		{"randplanar n=150", graph.RandomPlanar(150, 300, rng)},
		{"tree n=150", graph.RandomTree(150, rng)},
	}
	tb.row("input", "eps", "runs", "rejected")
	for _, in := range planarInputs {
		rate, err := core.DetectionRate(in.g, core.Options{Epsilon: 0.25}, seeds, 10)
		if err != nil {
			t.Fatal(err)
		}
		if rate != 0 {
			t.Errorf("E2 %s: planar input rejected in %.0f of %d runs", in.name, rate*seeds, seeds)
		}
		tb.row(in.name, 0.25, seeds, fmt.Sprintf("%.0f%%", 100*rate))
	}
	for _, extra := range []int{40, 80, 160} {
		g, dist := graph.PlanarPlusRandomEdges(120, extra, rng)
		eps := float64(dist) / float64(g.M()) / 2
		rate, err := core.DetectionRate(g, core.Options{Epsilon: eps}, seeds, 20)
		if err != nil {
			t.Fatal(err)
		}
		if rate < 2.0/3 {
			t.Errorf("E2 planar+%d: detection rate %.2f < 2/3", extra, rate)
		}
		tb.row(fmt.Sprintf("planar+%d (far)", extra), fmt.Sprintf("%.3f", eps), seeds, fmt.Sprintf("%.0f%%", 100*rate))
	}
	tb.note("far inputs run at half their certified distance; they must be rejected at rate >= 2/3.")
}

// claimE3: after k phases the deterministic cut is at most
// m(1-1/(12α))^k (Claim 1) and the randomized cut at most m(1-1/(64α))^k
// (Claim 14).
func claimE3(t *testing.T, tb *claimTable) {
	const alpha = 3.0
	g := graph.Grid(9, 9)
	m := float64(g.M())
	tb.row("phase", "cut(det)", "Claim 1 bound", "cut(rand)", "Claim 14 bound")
	for k := 1; k <= 8; k++ {
		det, _, _, err := partition.CollectStageI(g,
			partition.Options{Epsilon: 0.25, MaxPhases: k}, 3)
		if err != nil {
			t.Fatal(err)
		}
		rnd, _, _, err := partition.CollectStageI(g,
			partition.Options{Epsilon: 0.25, Variant: partition.Randomized, MaxPhases: k}, 3)
		if err != nil {
			t.Fatal(err)
		}
		cd, cr := partition.CutEdges(g, det), partition.CutEdges(g, rnd)
		b1 := m * math.Pow(1-1/(12*alpha), float64(k))
		b14 := m * math.Pow(1-1/(64*alpha), float64(k))
		if float64(cd) > b1 {
			t.Errorf("E3 phase %d: deterministic cut %d > Claim 1 bound %.1f", k, cd, b1)
		}
		if float64(cr) > b14 {
			t.Errorf("E3 phase %d: randomized cut %d > Claim 14 bound %.1f", k, cr, b14)
		}
		tb.row(k, cd, fmt.Sprintf("%.1f", b1), cr, fmt.Sprintf("%.1f", b14))
	}
	tb.note("grid 9x9, m=%d; the measured cuts shrink much faster than the proved bounds.", g.M())
}

// claimE4: parts after k phases have diameter at most DiamBound(k+1).
func claimE4(t *testing.T, tb *claimTable) {
	g := graph.Grid(9, 9)
	tb.row("phase", "max part diam", "bound 3^k-1", "parts")
	for k := 1; k <= 7; k++ {
		outs, _, _, err := partition.CollectStageI(g,
			partition.Options{Epsilon: 0.25, MaxPhases: k}, 5)
		if err != nil {
			t.Fatal(err)
		}
		d, bound := partition.MaxPartDiameter(g, outs), partition.DiamBound(k+1)
		if d > bound {
			t.Errorf("E4 phase %d: part diameter %d > bound %d", k, d, bound)
		}
		tb.row(k, d, bound, partition.NumParts(outs))
	}
}

// claimE5: the paper schedule's final cut is at most eps*m/2; the
// practical schedule is printed as an ablation and carries no bound.
func claimE5(t *testing.T, tb *claimTable) {
	rng := rand.New(rand.NewSource(5))
	inputs := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid 12x12", graph.Grid(12, 12)},
		{"maxplanar n=120", graph.MaximalPlanar(120, rng)},
	}
	tb.row("input", "eps", "eps*m/2", "cut(paper)", "cut(practical)")
	for _, in := range inputs {
		for _, eps := range []float64{0.5, 0.25} {
			po, _, _, err := partition.CollectStageI(in.g, partition.Options{Epsilon: eps}, 7)
			if err != nil {
				t.Fatal(err)
			}
			pr, _, _, err := partition.CollectStageI(in.g,
				partition.Options{Epsilon: eps, Schedule: partition.PracticalSchedule}, 7)
			if err != nil {
				t.Fatal(err)
			}
			bound := eps * float64(in.g.M()) / 2
			cut := partition.CutEdges(in.g, po)
			if float64(cut) > bound {
				t.Errorf("E5 %s eps=%.2f: cut %d > eps*m/2 = %.1f", in.name, eps, cut, bound)
			}
			tb.row(in.name, eps, fmt.Sprintf("%.1f", bound), cut, partition.CutEdges(in.g, pr))
		}
	}
}

// claimE6: no edge violates a planar embedding (Claim 10, with the
// attachment-label erratum fix), and on far inputs the violating edges
// number at least the certified distance under either embedding
// fallback (Corollary 9).
func claimE6(t *testing.T, tb *claimTable) {
	const trials = 50
	rng := rand.New(rand.NewSource(6))
	worst := 0
	for i := 0; i < trials; i++ {
		n := 10 + rng.Intn(60)
		g := graph.RandomPlanar(n, n-1+rng.Intn(2*n-5), rng)
		emb, err := planar.Embed(g)
		if err != nil {
			t.Fatal(err)
		}
		root := rng.Intn(n)
		v, _ := core.CountViolations(g, root, g.BFS(root).Parent, emb)
		worst = max(worst, v)
	}
	if worst != 0 {
		t.Errorf("E6 planar sweep: %d violating edges on a planar input", worst)
	}
	tb.row("far input", "cert. dist", "viol(arbitrary)", "viol(maxsubgraph)")
	for _, extra := range []int{10, 25, 50} {
		g, dist := graph.PlanarPlusRandomEdges(80, extra, rng)
		parent := g.BFS(0).Parent
		ra := planar.EmbedOrFallback(g, planar.FallbackArbitrary)
		va, _ := core.CountViolations(g, 0, parent, ra.Embedding)
		rm := planar.EmbedOrFallback(g, planar.FallbackMaxPlanarSubgraph)
		vm, _ := core.CountViolations(g, 0, parent, rm.Embedding)
		if va < dist || vm < dist {
			t.Errorf("E6 planar+%d: violations %d/%d below the certified distance %d", extra, va, vm, dist)
		}
		tb.row(fmt.Sprintf("planar+%d", extra), dist, va, vm)
	}
	tb.note("planar sweep: %d random planar graphs, max violating edges %d.", trials, worst)
}

// claimE7: the §3 lower-bound instances are certified far, every local
// view below the girth radius is a tree (so any one-sided tester with
// that round budget must accept), and the full tester still rejects.
func claimE7(t *testing.T, tb *claimTable) {
	rng := rand.New(rand.NewSource(7))
	tb.row("n", "girth>=", "cert. eps", "removed", "r", "tree views at r", "tester")
	for _, n := range []int{256, 512, 1024} {
		ins := lowerbound.New(n, 8, 17)
		if !ins.GirthAtLeast() {
			t.Errorf("E7 n=%d: girth below %d after surgery", n, ins.MinGirth)
		}
		r := (ins.MinGirth - 2) / 2
		frac := lowerbound.FractionTreeViews(ins.G, r, 150, rng)
		if frac != 1 {
			t.Errorf("E7 n=%d: tree-view fraction %.3f at radius %d, want 1", n, frac, r)
		}
		res, err := core.RunTester(ins.G, core.Options{Epsilon: ins.Epsilon / 2}, 23)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Rejected {
			t.Errorf("E7 n=%d: far instance accepted", n)
		}
		tb.row(n, ins.MinGirth, fmt.Sprintf("%.3f", ins.Epsilon), ins.RemovedEdges, r,
			fmt.Sprintf("%.0f%%", 100*frac), verdict(res.Rejected))
	}
}

// claimE8: the randomized partition's cut is at most eps*n with
// probability at least 1-delta, and the selection trials per phase grow
// as delta shrinks. The runs stop after the practical schedule's phases
// (4 at eps 0.5, 5 at eps 0.25): run to the paper's schedule, early exit
// merges the grid whole and the cut is 0 whatever the selection does,
// while after these phases the cuts (26-43 of 50, 4-24 of 25) leave the
// bound a margin that a weaker merge step does not keep.
func claimE8(t *testing.T, tb *claimTable) {
	const seeds = 4
	g := graph.Grid(10, 10)
	tb.row("eps", "delta", "phases", "trials/phase", "mean rounds", "cut<=eps*n")
	for _, eps := range []float64{0.5, 0.25} {
		prevTrials := 0
		phases := partition.Options{Epsilon: eps, Schedule: partition.PracticalSchedule}.Phases()
		for _, delta := range []float64{0.25, 0.06, 0.015} {
			opts := partition.Options{Epsilon: eps, Variant: partition.Randomized, Delta: delta, MaxPhases: phases}
			good, rounds := 0, 0
			for s := 0; s < seeds; s++ {
				outs, _, res, err := partition.CollectStageI(g, opts, int64(100+s))
				if err != nil {
					t.Fatal(err)
				}
				rounds += res.Metrics.Rounds
				if float64(partition.CutEdges(g, outs)) <= eps*float64(g.N()) {
					good++
				}
			}
			if need := int(math.Ceil((1 - delta) * seeds)); good < need {
				t.Errorf("E8 eps=%.2f delta=%.3f: cut <= eps*n on %d of %d seeds, want >= %d", eps, delta, good, seeds, need)
			}
			trials := opts.SelectionTrials()
			if trials <= prevTrials {
				t.Errorf("E8 eps=%.2f delta=%.3f: %d selection trials, not above %d at the larger delta", eps, delta, trials, prevTrials)
			}
			prevTrials = trials
			tb.row(eps, delta, phases, trials, rounds/seeds, fmt.Sprintf("%d/%d", good, seeds))
		}
	}
}

// claimE9: the Corollary 16 testers return the expected verdicts under
// both partition variants, and so does the hereditary-property tester
// (§4.2 remark) for outerplanarity.
func claimE9(t *testing.T, tb *claimTable) {
	rng := rand.New(rand.NewSource(9))
	randomized := testers.Options{Epsilon: 0.2,
		Partition: partition.Options{Epsilon: 0.2, Variant: partition.Randomized}}
	cases := []struct {
		name   string
		g      *graph.Graph
		prop   testers.Property
		reject bool
	}{
		{"tree n=100", graph.RandomTree(100, rng), testers.CycleFreeness, false},
		{"tree+40 edges", graph.TreePlusRandomEdges(100, 40, rng), testers.CycleFreeness, true},
		{"grid 10x10", graph.Grid(10, 10), testers.Bipartiteness, false},
		{"grid+odd chords", graph.GridWithOddChords(10, 10, 12, rng), testers.Bipartiteness, true},
	}
	variants := []struct {
		name string
		opts testers.Options
	}{
		{"deterministic", testers.Options{Epsilon: 0.2}},
		{"randomized", randomized},
	}
	tb.row("input", "property", "variant", "verdict", "rounds")
	for _, c := range cases {
		for _, v := range variants {
			res, err := testers.Run(c.g, c.prop, v.opts, 31)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rejected != c.reject {
				t.Errorf("E9 %s %s %s: %s, want %s", c.name, c.prop, v.name, verdict(res.Rejected), verdict(c.reject))
			}
			tb.row(c.name, c.prop, v.name, verdict(res.Rejected), res.Metrics.Rounds)
		}
	}
	hcases := []struct {
		name   string
		g      *graph.Graph
		reject bool
	}{
		{"outerplanar n=60", graph.Outerplanar(60, rng), false},
		{"maxplanar n=60", graph.MaximalPlanar(60, rng), true},
	}
	for _, c := range hcases {
		res, err := testers.RunHereditary(c.g, planar.IsOuterplanar, randomized, 37)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rejected != c.reject {
			t.Errorf("E9 %s outerplanarity: %s, want %s", c.name, verdict(res.Rejected), verdict(c.reject))
		}
		tb.row(c.name, "outerplanarity", "hereditary", verdict(res.Rejected), res.Metrics.Rounds)
	}
}

// claimE10: the spanner views agree, the spanner has at most (1+2eps)n
// edges, and its sampled stretch stays within the largest per-part
// StretchBound plus one (TestSpannerOnGrid's rule).
func claimE10(t *testing.T, tb *claimTable) {
	g := graph.Grid(16, 16)
	rng := rand.New(rand.NewSource(10))
	tb.row("input", "eps", "edges/n", "1+2eps", "max stretch", "stretch bound+1", "mean stretch")
	for _, eps := range []float64{0.5, 0.25, 0.125} {
		sp, views, _, err := spanner.Collect(g, spanner.Options{Epsilon: eps}, 13)
		if err != nil {
			t.Fatal(err)
		}
		if err := spanner.VerifySymmetric(g, views); err != nil {
			t.Errorf("E10 eps=%.3f: %v", eps, err)
		}
		ratio := float64(sp.M()) / float64(g.N())
		if ratio > 1+2*eps {
			t.Errorf("E10 eps=%.3f: %.3f edges per node > 1+2eps", eps, ratio)
		}
		worst := 0
		for _, v := range views {
			worst = max(worst, v.StretchBound)
		}
		maxS, meanS := spanner.MeasureStretch(g, sp, 250, rng)
		if maxS < 0 || maxS > float64(worst)+1 {
			t.Errorf("E10 eps=%.3f: max stretch %.1f outside [0, %d]", eps, maxS, worst+1)
		}
		tb.row("grid 16x16", eps, fmt.Sprintf("%.3f", ratio), fmt.Sprintf("%.2f", 1+2*eps),
			fmt.Sprintf("%.1f", maxS), worst+1, fmt.Sprintf("%.2f", meanS))
	}
}

// claimE11: the Elkin-Neiman baseline partitions in fewer rounds, but its
// parts have Θ(log n/eps) diameter, at most 4·ENShiftCap(n, eps/2)
// (TestElkinNeimanBaseline's rule), which Stage II pays back.
func claimE11(t *testing.T, tb *claimTable) {
	const eps = 0.25
	tb.row("n", "rounds(Stage I)", "rounds(EN)", "EN part diam", "bound", "EN cut/m")
	for _, s := range []int{8, 12} {
		g := graph.Grid(s, s)
		r1, err := core.RunTester(g, core.Options{Epsilon: eps}, 3)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := core.RunTester(g, core.Options{Epsilon: eps, UseEN: true}, 3)
		if err != nil {
			t.Fatal(err)
		}
		outs, _, _, err := partition.CollectEN(g, eps, 3)
		if err != nil {
			t.Fatal(err)
		}
		d, bound := partition.MaxPartDiameter(g, outs), 4*partition.ENShiftCap(g.N(), eps/2)
		if d > bound {
			t.Errorf("E11 n=%d: EN part diameter %d > %d", g.N(), d, bound)
		}
		tb.row(g.N(), r1.Metrics.Rounds, r2.Metrics.Rounds, d, bound,
			fmt.Sprintf("%.3f", float64(partition.CutEdges(g, outs))/float64(g.M())))
	}
}

// claimE12: every message of a full tester run fits the O(log n)-bit
// CONGEST bound B; long payloads are chunked.
func claimE12(t *testing.T, tb *claimTable) {
	rng := rand.New(rand.NewSource(12))
	maxplanar := graph.MaximalPlanar(150, rng)
	far, _ := graph.PlanarPlusRandomEdges(100, 80, rng)
	inputs := []struct {
		name string
		g    *graph.Graph
		opts core.Options
	}{
		{"grid 12x12", graph.Grid(12, 12), core.Options{Epsilon: 0.25}},
		{"maxplanar n=150", maxplanar, core.Options{Epsilon: 0.25}},
		{"far n=100", far, core.Options{Epsilon: 0.1}},
		{"grid 12x12 EN", graph.Grid(12, 12), core.Options{Epsilon: 0.25, UseEN: true}},
	}
	tb.row("run", "bound B", "max msg bits", "messages", "msgs/round", "modeled rounds")
	for _, in := range inputs {
		res, err := core.RunTester(in.g, in.opts, 29)
		if err != nil {
			t.Fatal(err)
		}
		m := res.Metrics
		if m.MaxMessageBits > m.BitBound {
			t.Errorf("E12 %s: %d-bit message > bound %d", in.name, m.MaxMessageBits, m.BitBound)
		}
		tb.row(in.name, m.BitBound, m.MaxMessageBits, m.Messages,
			fmt.Sprintf("%.2f", float64(m.Messages)/math.Max(1, float64(m.Rounds))), m.ModeledRounds)
	}
}
