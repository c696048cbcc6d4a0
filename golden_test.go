package repro

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/spanner"
	"repro/internal/testers"
)

// goldenRow pins one seeded run of a randomized path: its metrics and a
// digest of its per-node outcome.
type goldenRow struct {
	name     string
	seed     int64
	rounds   int
	modeled  int64
	messages int64
	bits     int64
	digest   string
}

// goldenRuns are the randomized paths the golden table pins: every one
// draws from the per-node RNGs, so a changed random stream shows up in
// its counters or its digest. The engine-equivalence tests cannot catch
// such a change, because both execution models share one RNG. Each run
// takes the engine worker count, which must not change any pinned value.
var goldenRuns = map[string]func(seed int64, workers int) (congest.Metrics, string){
	// Stage II with a sample probability below one in the larger parts
	// (SampleCoeff shrinks the Θ(log n/ε) target), on a planar grid and
	// on a far graph whose rejections depend on the sampled pairs.
	"stage2-sampling/grid": func(seed int64, workers int) (congest.Metrics, string) {
		return goldenTester(graph.Grid(14, 14), core.Options{
			Epsilon: 0.5, StageII: core.StageIIOptions{SampleCoeff: 0.5}, Workers: workers}, seed)
	},
	"stage2-sampling/far": func(seed int64, workers int) (congest.Metrics, string) {
		g := graph.GridWithOddChords(14, 14, 30, rand.New(rand.NewSource(5)))
		return goldenTester(g, core.Options{
			Epsilon: 0.5, StageII: core.StageIIOptions{SampleCoeff: 0.5}, Workers: workers}, seed)
	},
	// One apex of a bipyramid holds ~n non-tree edges, so it draws past
	// both register boundaries of its source (draws 273 and 607).
	"stage2-sampling/bipyramid": func(seed int64, workers int) (congest.Metrics, string) {
		return goldenTester(bipyramid(800), core.Options{
			Epsilon: 0.5, StageII: core.StageIIOptions{SampleCoeff: 0.5}, Workers: workers}, seed)
	},
	"stage1-randomized/tester": func(seed int64, workers int) (congest.Metrics, string) {
		return goldenTester(graph.RandomPlanar(200, 350, rand.New(rand.NewSource(6))), core.Options{
			Epsilon: 0.25, Partition: goldenRandomized, Workers: workers}, seed)
	},
	"stage1-randomized/collect": func(seed int64, _ int) (congest.Metrics, string) {
		outs, _, res, err := partition.CollectStageI(graph.RandomPlanar(200, 350, rand.New(rand.NewSource(6))), goldenRandomized, seed)
		return goldenPartition(outs, res, err)
	},
	"elkin-neiman/tester": func(seed int64, workers int) (congest.Metrics, string) {
		return goldenTester(graph.RandomPlanar(200, 350, rand.New(rand.NewSource(7))), core.Options{
			Epsilon: 0.25, UseEN: true, Workers: workers}, seed)
	},
	"elkin-neiman/collect": func(seed int64, _ int) (congest.Metrics, string) {
		outs, _, res, err := partition.CollectEN(graph.RandomPlanar(200, 350, rand.New(rand.NewSource(7))), 0.25, seed)
		return goldenPartition(outs, res, err)
	},
	"cycle-freeness": func(seed int64, workers int) (congest.Metrics, string) {
		g := graph.TreePlusRandomEdges(160, 6, rand.New(rand.NewSource(8)))
		res, err := testers.Run(g, testers.CycleFreeness, testers.Options{
			Epsilon: 0.25, Partition: goldenRandomized, Workers: workers}, seed)
		return goldenRunResult(res, err)
	},
	"bipartiteness": func(seed int64, workers int) (congest.Metrics, string) {
		g := graph.GridWithOddChords(12, 12, 4, rand.New(rand.NewSource(9)))
		res, err := testers.Run(g, testers.Bipartiteness, testers.Options{
			Epsilon: 0.25, Partition: goldenRandomized, Workers: workers}, seed)
		return goldenRunResult(res, err)
	},
	"spanner": func(seed int64, workers int) (congest.Metrics, string) {
		g := graph.RandomPlanar(200, 400, rand.New(rand.NewSource(10)))
		sp, _, m, err := spanner.Collect(g, spanner.Options{
			Epsilon: 0.25, Partition: goldenRandomized, Workers: workers}, seed)
		if err != nil {
			panic(err)
		}
		h := fnv.New64a()
		for _, e := range sp.Edges() {
			binary.Write(h, binary.LittleEndian, [2]int64{int64(e.U), int64(e.V)})
		}
		return m, fmt.Sprintf("%016x", h.Sum64())
	},
}

// bipyramid is a planar cycle on nodes 2..n-1 with two apexes, 0 and 1,
// each adjacent to every cycle node.
func bipyramid(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 2; i < n; i++ {
		b.AddEdge(0, i)
		b.AddEdge(1, i)
		b.AddEdge(i, 2+(i-1)%(n-2))
	}
	return b.Build()
}

var goldenRandomized = partition.Options{
	Epsilon: 0.25, Variant: partition.Randomized, Schedule: partition.PracticalSchedule}

func goldenTester(g *graph.Graph, opts core.Options, seed int64) (congest.Metrics, string) {
	return goldenRunResult(core.RunTester(g, opts, seed))
}

// goldenRunResult digests a tester RunResult. It carries no per-node
// verdicts, so the digest covers the verdict and the rejecting-node count.
func goldenRunResult(res *core.RunResult, err error) (congest.Metrics, string) {
	if err != nil {
		panic(err)
	}
	return res.Metrics, fmt.Sprintf("rejected=%v by=%d", res.Rejected, res.RejectedBy)
}

// goldenPartition digests the per-node verdicts and part roots.
func goldenPartition(outs []*partition.Outcome, res *congest.Result, err error) (congest.Metrics, string) {
	if err != nil {
		panic(err)
	}
	h := fnv.New64a()
	for i, o := range outs {
		binary.Write(h, binary.LittleEndian, [2]int64{int64(res.Verdicts[i]), o.RootID})
	}
	return res.Metrics, fmt.Sprintf("%016x", h.Sum64())
}

// goldenTable was recorded while every node drew from its own
// rand.NewSource. It must never change: the per-node source reproduces
// math/rand's stream exactly, and a different stream moves every row.
var goldenTable = []goldenRow{
	{"bipartiteness", 1, 15859, 0, 59803, 250523, "rejected=true by=5"},
	{"bipartiteness", 2, 15861, 0, 61233, 249239, "rejected=true by=11"},
	{"cycle-freeness", 1, 15899, 0, 65309, 227568, "rejected=true by=3"},
	{"cycle-freeness", 2, 15891, 0, 64226, 223636, "rejected=true by=1"},
	{"elkin-neiman/collect", 1, 173, 0, 899, 19298, "cf61008505e3e825"},
	{"elkin-neiman/collect", 2, 173, 0, 899, 21398, "2d22fd532fb7f325"},
	{"elkin-neiman/tester", 1, 6984, 24, 17586, 4442475, "rejected=false by=0"},
	{"elkin-neiman/tester", 2, 5302, 21, 17368, 4261653, "rejected=false by=0"},
	{"spanner", 1, 15987, 0, 88666, 332554, "93996671b0b571f2"},
	{"spanner", 2, 15987, 0, 87375, 333567, "f5c98101f667528a"},
	{"stage1-randomized/collect", 1, 15380, 0, 84268, 313302, "06c61175ea18be65"},
	{"stage1-randomized/collect", 2, 15380, 0, 84783, 312095, "ca67c522eb2cacf1"},
	{"stage1-randomized/tester", 1, 22302, 36, 100316, 4409410, "rejected=false by=0"},
	{"stage1-randomized/tester", 2, 22176, 57, 98827, 3709575, "rejected=false by=0"},
	{"stage2-sampling/bipyramid", 1, 12894, 9, 637331, 105259715, "rejected=false by=0"},
	{"stage2-sampling/bipyramid", 2, 12894, 9, 643776, 108325860, "rejected=false by=0"},
	{"stage2-sampling/far", 1, 163318, 102, 197566, 4441218, "rejected=true by=65"},
	{"stage2-sampling/far", 2, 477860, 80, 226409, 4752196, "rejected=true by=113"},
	{"stage2-sampling/grid", 1, 57378, 74, 165747, 4032933, "rejected=false by=0"},
	{"stage2-sampling/grid", 2, 163046, 88, 193596, 4370012, "rejected=false by=0"},
}

func (r goldenRow) String() string {
	return fmt.Sprintf("{%q, %d, %d, %d, %d, %d, %q},", r.name, r.seed, r.rounds, r.modeled, r.messages, r.bits, r.digest)
}

// TestGoldenRandomizedPaths checks every pinned row under one and two
// engine workers. On a mismatch it prints the row as observed, in table
// syntax.
func TestGoldenRandomizedPaths(t *testing.T) {
	seen := map[string]bool{}
	for _, want := range goldenTable {
		seen[want.name] = true
		run, ok := goldenRuns[want.name]
		if !ok {
			t.Fatalf("golden row %q has no run", want.name)
		}
		for _, workers := range []int{1, 2} {
			m, digest := run(want.seed, workers)
			got := goldenRow{want.name, want.seed, m.Rounds, m.ModeledRounds, m.Messages, m.TotalBits, digest}
			if got != want {
				t.Errorf("workers=%d:\ngot  %v\nwant %v", workers, got, want)
			}
		}
	}
	for name := range goldenRuns {
		if !seen[name] {
			t.Errorf("run %q has no golden row", name)
		}
	}
}
