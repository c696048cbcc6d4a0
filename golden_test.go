package repro

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/planar"
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

// goldenRuns are the runs the golden table pins. The entries below are
// randomized paths: every one draws from the per-node RNGs, so a changed
// random stream shows up in its counters or its digest. The "equiv/"
// entries, registered by init, pin the configuration grids once checked by
// comparing two execution models. Each run takes the engine worker count,
// which must not change any pinned value.
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
	// A reject run cut by StopOnReject while other parts are still
	// inside a part-tree broadcast or stream: the cut must count only the
	// traffic sent up to its final round.
	"cut/gnp300": func(seed int64, workers int) (congest.Metrics, string) {
		g := graph.GNP(300, 8.0/300, rand.New(rand.NewSource(1)))
		return goldenResult(core.RunTester(g, core.Options{Epsilon: 0.2, Workers: workers,
			Partition: partition.Options{Epsilon: 0.2, Schedule: partition.PracticalSchedule}}, seed))
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

// The engine-equivalence grids: the families, options and seeds on which
// Stage I, the Elkin–Neiman baseline, the full tester, the minor-free and
// hereditary testers and the spanner were checked against a second,
// goroutine-per-node execution model before it was removed. The rows were
// recorded while both models agreed. Each grid registers one run per
// family and option set, and its rows are the grid's seeds. The digests
// cover everything those checks compared (see goldenCell). The partition
// collectors take no worker count, so their runs set GOMAXPROCS, which
// the engine's default worker count follows.
func init() {
	far60, _ := graph.PlanarPlusRandomEdges(60, 50, rand.New(rand.NewSource(4)))
	testerFamilies := []goldenFamily{
		{"grid", graph.Grid(8, 8)},
		{"far-from-planar", far60},
		{"tree-plus-edges", graph.TreePlusRandomEdges(70, 20, rand.New(rand.NewSource(8)))},
		{"cycle", graph.Cycle(33)},
	}
	testerOpts := []struct {
		name string
		opts core.Options
	}{
		{"det-paper", core.Options{Epsilon: 0.25}},
		{"det-practical", core.Options{Epsilon: 0.25, Partition: partition.Options{
			Epsilon: 0.25, Schedule: partition.PracticalSchedule}}},
		{"rand-practical", core.Options{Epsilon: 0.25, Partition: partition.Options{
			Epsilon: 0.25, Variant: partition.Randomized, Schedule: partition.PracticalSchedule}}},
		{"en", core.Options{Epsilon: 0.25, UseEN: true}},
	}
	for _, fam := range testerFamilies {
		for _, o := range testerOpts {
			g, opts := fam.g, o.opts
			goldenRuns["equiv/tester/"+fam.name+"/"+o.name] = func(seed int64, workers int) (congest.Metrics, string) {
				opts.Workers = workers
				return goldenResult(core.RunTester(g, opts, seed))
			}
		}
	}

	far40, _ := graph.PlanarPlusRandomEdges(60, 40, rand.New(rand.NewSource(99)))
	stage1Families := []goldenFamily{
		{"grid", graph.Grid(7, 9)},
		{"cycle", graph.Cycle(41)},
		{"tree-plus-edges", graph.TreePlusRandomEdges(50, 12, rand.New(rand.NewSource(7)))},
		{"planar-plus-edges", far40},
		{"star", graph.Star(17)},
	}
	schedules := []struct {
		name  string
		sched partition.Schedule
	}{{"paper", partition.PaperSchedule}, {"practical", partition.PracticalSchedule}}
	variants := []struct {
		name    string
		variant partition.Variant
	}{{"det", partition.Deterministic}, {"rand", partition.Randomized}}
	for _, fam := range stage1Families {
		for _, s := range schedules {
			for _, v := range variants {
				g, opts := fam.g, partition.Options{Epsilon: 0.25, Schedule: s.sched, Variant: v.variant}
				goldenRuns["equiv/stage1/"+fam.name+"/"+s.name+"/"+v.name] = func(seed int64, workers int) (congest.Metrics, string) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
					return goldenOutcomes(partition.CollectStageI(g, opts, seed))
				}
			}
		}
	}

	enFamilies := []goldenFamily{
		{"grid", graph.Grid(8, 8)},
		{"cycle", graph.Cycle(37)},
		{"tree-plus-edges", graph.TreePlusRandomEdges(60, 15, rand.New(rand.NewSource(3)))},
		{"star", graph.Star(21)},
	}
	for _, fam := range enFamilies {
		for _, eps := range []float64{0.25, 0.5} {
			g, eps := fam.g, eps
			goldenRuns[fmt.Sprintf("equiv/en/%s/eps%v", fam.name, eps)] = func(seed int64, workers int) (congest.Metrics, string) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
				return goldenOutcomes(partition.CollectEN(g, eps, seed))
			}
		}
	}

	minorFreeFamilies := []goldenFamily{
		{"grid", graph.Grid(7, 7)},
		{"tree", graph.RandomTree(50, rand.New(rand.NewSource(1)))},
		{"tree-plus-edges", graph.TreePlusRandomEdges(60, 20, rand.New(rand.NewSource(2)))},
		{"odd-chords", graph.GridWithOddChords(6, 6, 5, rand.New(rand.NewSource(3)))},
	}
	for _, fam := range minorFreeFamilies {
		for _, prop := range []testers.Property{testers.CycleFreeness, testers.Bipartiteness} {
			for _, v := range variants {
				g, prop := fam.g, prop
				opts := testers.Options{Epsilon: 0.2, Partition: partition.Options{
					Epsilon: 0.2, Variant: v.variant, Schedule: partition.PracticalSchedule}}
				goldenRuns["equiv/minor-free/"+fam.name+"/"+prop.String()+"/"+v.name] = func(seed int64, workers int) (congest.Metrics, string) {
					opts.Workers = workers
					return goldenResult(testers.Run(g, prop, opts, seed))
				}
			}
		}
	}

	hereditaryFamilies := []goldenFamily{
		{"outerplanar", graph.Outerplanar(30, rand.New(rand.NewSource(5)))},
		{"cycle", graph.Cycle(25)},
		{"grid", graph.Grid(6, 6)},
	}
	for _, fam := range hereditaryFamilies {
		g := fam.g
		goldenRuns["equiv/hereditary/"+fam.name] = func(seed int64, workers int) (congest.Metrics, string) {
			opts := testers.Options{Epsilon: 0.25, Workers: workers, Partition: partition.Options{
				Epsilon: 0.25, Schedule: partition.PracticalSchedule}}
			return goldenResult(testers.RunHereditary(g, planar.IsOuterplanar, opts, seed))
		}
	}

	rng := rand.New(rand.NewSource(11))
	spannerFamilies := []goldenFamily{
		{"grid", graph.Grid(7, 8)},
		{"maximal-planar", graph.MaximalPlanar(50, rng)},
		{"outerplanar", graph.Outerplanar(35, rng)},
		{"tree", graph.RandomTree(40, rng)},
	}
	for _, fam := range spannerFamilies {
		for _, v := range variants {
			g := fam.g
			opts := spanner.Options{Epsilon: 0.3, Partition: partition.Options{
				Epsilon: 0.3, Variant: v.variant, Schedule: partition.PracticalSchedule}}
			goldenRuns["equiv/spanner/"+fam.name+"/"+v.name] = func(seed int64, workers int) (congest.Metrics, string) {
				opts.Workers = workers
				return goldenSpanner(spanner.Collect(g, opts, seed))
			}
		}
	}
}

type goldenFamily struct {
	name string
	g    *graph.Graph
}

// goldenCell digests one engine-equivalence cell: the Metrics fields
// that the row's columns leave out, then whatever write adds. A run that
// fails digests to its error text.
func goldenCell(m congest.Metrics, err error, write func(w io.Writer)) (congest.Metrics, string) {
	if err != nil {
		return congest.Metrics{}, "error: " + err.Error()
	}
	h := fnv.New64a()
	goldenPut(h, int64(m.MaxMessageBits), int64(m.BitBound), m.DroppedToDone)
	write(h)
	return m, fmt.Sprintf("%016x", h.Sum64())
}

func goldenPut(w io.Writer, vs ...int64) {
	binary.Write(w, binary.LittleEndian, vs)
}

// goldenResult digests a tester RunResult: its verdict, its rejecting-node
// count and every Metrics field.
func goldenResult(res *core.RunResult, err error) (congest.Metrics, string) {
	if err != nil {
		return goldenCell(congest.Metrics{}, err, nil)
	}
	return goldenCell(res.Metrics, nil, func(w io.Writer) {
		binary.Write(w, binary.LittleEndian, res.Rejected)
		goldenPut(w, int64(res.RejectedBy))
	})
}

// goldenOutcomes digests a partition run: the ids, the verdicts, and each
// node's Outcome (or its absence, when the run stopped first).
func goldenOutcomes(outs []*partition.Outcome, ids []int64, res *congest.Result, err error) (congest.Metrics, string) {
	if err != nil {
		return goldenCell(congest.Metrics{}, err, nil)
	}
	return goldenCell(res.Metrics, nil, func(w io.Writer) {
		goldenPut(w, ids...)
		for v, o := range outs {
			goldenPut(w, int64(res.Verdicts[v]))
			if o == nil {
				goldenPut(w, -1)
				continue
			}
			goldenPut(w, o.RootID, int64(o.PhasesRun), int64(o.Tree.ParentPort), int64(len(o.Tree.ChildPorts)))
			binary.Write(w, binary.LittleEndian, [2]bool{o.Rejected, o.EarlyExit})
			for _, p := range o.Tree.ChildPorts {
				goldenPut(w, int64(p))
			}
		}
	})
}

// goldenSpanner digests a spanner run: each node's view and the edge list.
func goldenSpanner(sp *graph.Graph, views []*spanner.NodeSpanner, m congest.Metrics, err error) (congest.Metrics, string) {
	if err != nil {
		return goldenCell(congest.Metrics{}, err, nil)
	}
	return goldenCell(m, nil, func(w io.Writer) {
		for _, v := range views {
			if v == nil {
				goldenPut(w, -1)
				continue
			}
			goldenPut(w, v.PartRoot, int64(v.StretchBound), int64(len(v.Ports)))
			binary.Write(w, binary.LittleEndian, v.Ports)
		}
		for _, e := range sp.Edges() {
			goldenPut(w, int64(e.U), int64(e.V))
		}
	})
}

// goldenTable was recorded while every node drew from its own
// rand.NewSource. It must never change: the per-node source reproduces
// math/rand's stream exactly, and a different stream moves every row.
var goldenTable = []goldenRow{
	{"bipartiteness", 1, 15859, 0, 59803, 250523, "rejected=true by=5"},
	{"bipartiteness", 2, 15861, 0, 61233, 249239, "rejected=true by=11"},
	{"cut/gnp300", 1, 520, 0, 94031, 1084278, "8f85e17ddb9cbaef"},
	{"cut/gnp300", 2, 520, 0, 94181, 1085593, "2274401726c15465"},
	{"cut/gnp300", 3, 520, 0, 94042, 1085343, "3f9b001c1cf64707"},
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
	// The engine-equivalence grids (see init).
	{"equiv/en/cycle/eps0.25", 0, 119, 0, 109, 2142, "e753b215b339bdbc"},
	{"equiv/en/cycle/eps0.25", 1, 119, 0, 108, 2006, "6163cabd75f6dbc0"},
	{"equiv/en/cycle/eps0.25", 2, 119, 0, 109, 1876, "a3e14cb005775d03"},
	{"equiv/en/cycle/eps0.5", 0, 61, 0, 107, 2064, "fc7cd0e7d9c0b880"},
	{"equiv/en/cycle/eps0.5", 1, 61, 0, 106, 2058, "dd1824a0e063ae15"},
	{"equiv/en/cycle/eps0.5", 2, 61, 0, 108, 1910, "0f8e728db2d0c49e"},
	{"equiv/en/grid/eps0.25", 0, 137, 0, 287, 6398, "90bc5c569ae8c0a0"},
	{"equiv/en/grid/eps0.25", 1, 137, 0, 287, 6846, "243b32641d40ee99"},
	{"equiv/en/grid/eps0.25", 2, 137, 0, 287, 5502, "c4f155ad4d070f5b"},
	{"equiv/en/grid/eps0.5", 0, 71, 0, 285, 6208, "93ff34a3ff591a9e"},
	{"equiv/en/grid/eps0.5", 1, 71, 0, 285, 6701, "5c4cfa29f2b2e781"},
	{"equiv/en/grid/eps0.5", 2, 71, 0, 286, 5588, "74f796b63d7ecfa0"},
	{"equiv/en/star/eps0.25", 0, 101, 0, 60, 1120, "b6e1435d66d793c5"},
	{"equiv/en/star/eps0.25", 1, 101, 0, 60, 1040, "c1b7bb2a6f776d0e"},
	{"equiv/en/star/eps0.25", 2, 101, 0, 60, 1000, "b59b980486eb38d7"},
	{"equiv/en/star/eps0.5", 0, 53, 0, 60, 1080, "42cc2d5e5cea2fec"},
	{"equiv/en/star/eps0.5", 1, 53, 0, 60, 1040, "c1b7bb2a6f776d0e"},
	{"equiv/en/star/eps0.5", 2, 53, 0, 60, 960, "5dcb45bfa985df20"},
	{"equiv/en/tree-plus-edges/eps0.25", 0, 135, 0, 207, 4262, "5bb75f222eb51faa"},
	{"equiv/en/tree-plus-edges/eps0.25", 1, 135, 0, 207, 4558, "c28c11226c0c021b"},
	{"equiv/en/tree-plus-edges/eps0.25", 2, 135, 0, 207, 3670, "962060bb1e41f600"},
	{"equiv/en/tree-plus-edges/eps0.5", 0, 69, 0, 207, 4114, "7dc48e28e945e22d"},
	{"equiv/en/tree-plus-edges/eps0.5", 1, 69, 0, 206, 4548, "7725d2054bd8d9b0"},
	{"equiv/en/tree-plus-edges/eps0.5", 2, 69, 0, 207, 3522, "dea884f1256f881f"},
	{"equiv/hereditary/cycle", 0, 16719, 30, 11420, 44664, "5449228a83db4fbe"},
	{"equiv/hereditary/cycle", 1, 16699, 26, 11487, 44430, "04c15eead8191ca4"},
	{"equiv/hereditary/grid", 0, 16987, 22, 19188, 91800, "3b0746401d483827"},
	{"equiv/hereditary/grid", 1, 16991, 20, 18718, 90044, "6e5b1d1066e454ec"},
	{"equiv/hereditary/outerplanar", 0, 6395, 16, 13169, 57860, "4dd8317d5b19c867"},
	{"equiv/hereditary/outerplanar", 1, 6415, 20, 13002, 57697, "171189e6fcacb94a"},
	{"equiv/minor-free/grid/bipartiteness/det", 0, 49428, 0, 32741, 154840, "cae8551f54d828ed"},
	{"equiv/minor-free/grid/bipartiteness/det", 1, 49420, 0, 32801, 155044, "b2f7575183f8f287"},
	{"equiv/minor-free/grid/bipartiteness/rand", 0, 16059, 0, 20166, 77496, "5c6e8e381e2ca291"},
	{"equiv/minor-free/grid/bipartiteness/rand", 1, 44904, 0, 25749, 93715, "4ed41b5e4a191dc2"},
	{"equiv/minor-free/grid/cycle-freeness/det", 0, 49428, 0, 32741, 154840, "92c1fd0749e39f7e"},
	{"equiv/minor-free/grid/cycle-freeness/det", 1, 49420, 0, 32801, 155044, "5f2ee7db9c640275"},
	{"equiv/minor-free/grid/cycle-freeness/rand", 0, 16059, 0, 20166, 77496, "6dc03b94ffeb3fda"},
	{"equiv/minor-free/grid/cycle-freeness/rand", 1, 44904, 0, 25749, 93715, "86fa7376550da731"},
	{"equiv/minor-free/odd-chords/bipartiteness/det", 0, 48619, 0, 23629, 107395, "052ce7cf76a4924a"},
	{"equiv/minor-free/odd-chords/bipartiteness/det", 1, 48627, 0, 23858, 104881, "d7cd6fb3380dde0c"},
	{"equiv/minor-free/odd-chords/bipartiteness/rand", 0, 44861, 0, 18760, 70136, "854e1ba0bde63572"},
	{"equiv/minor-free/odd-chords/bipartiteness/rand", 1, 16004, 0, 15016, 54268, "180a37164c0cf91f"},
	{"equiv/minor-free/odd-chords/cycle-freeness/det", 0, 48619, 0, 23629, 107395, "3af8ae29e3fd7794"},
	{"equiv/minor-free/odd-chords/cycle-freeness/det", 1, 48627, 0, 23858, 104881, "056f6e55fce1145e"},
	{"equiv/minor-free/odd-chords/cycle-freeness/rand", 0, 44861, 0, 18760, 70136, "285dc6859d18570f"},
	{"equiv/minor-free/odd-chords/cycle-freeness/rand", 1, 16004, 0, 15016, 54268, "ea6838738739c2cd"},
	{"equiv/minor-free/tree-plus-edges/bipartiteness/det", 0, 50193, 0, 37913, 168238, "b62373129e3a6a33"},
	{"equiv/minor-free/tree-plus-edges/bipartiteness/det", 1, 50195, 0, 39754, 162352, "d555802914511587"},
	{"equiv/minor-free/tree-plus-edges/bipartiteness/rand", 0, 16082, 0, 25080, 90401, "180a37164c0cf91f"},
	{"equiv/minor-free/tree-plus-edges/bipartiteness/rand", 1, 44935, 0, 31931, 109470, "0f238ea447f5efb8"},
	{"equiv/minor-free/tree-plus-edges/cycle-freeness/det", 0, 50193, 0, 37913, 168238, "615ce5af25f23ac8"},
	{"equiv/minor-free/tree-plus-edges/cycle-freeness/det", 1, 50195, 0, 39754, 162352, "bcd829021ac0089f"},
	{"equiv/minor-free/tree-plus-edges/cycle-freeness/rand", 0, 16082, 0, 25080, 90401, "d397392224d027a4"},
	{"equiv/minor-free/tree-plus-edges/cycle-freeness/rand", 1, 44935, 0, 31931, 109470, "36481d64fb6ae8d1"},
	{"equiv/minor-free/tree/bipartiteness/det", 0, 49399, 0, 26289, 106764, "b2f7575183f8f287"},
	{"equiv/minor-free/tree/bipartiteness/det", 1, 49399, 0, 26466, 104933, "e2d952ed25b75f53"},
	{"equiv/minor-free/tree/bipartiteness/rand", 0, 44893, 0, 26146, 82221, "96a714c7bcb6c0f4"},
	{"equiv/minor-free/tree/bipartiteness/rand", 1, 44897, 0, 26843, 84672, "96a714c7bcb6c0f4"},
	{"equiv/minor-free/tree/cycle-freeness/det", 0, 49399, 0, 26289, 106764, "b2f7575183f8f287"},
	{"equiv/minor-free/tree/cycle-freeness/det", 1, 49399, 0, 26466, 104933, "e2d952ed25b75f53"},
	{"equiv/minor-free/tree/cycle-freeness/rand", 0, 44893, 0, 26146, 82221, "96a714c7bcb6c0f4"},
	{"equiv/minor-free/tree/cycle-freeness/rand", 1, 44897, 0, 26843, 84672, "96a714c7bcb6c0f4"},
	{"equiv/spanner/grid/det", 0, 17127, 0, 30705, 146109, "e502efa53c08ee04"},
	{"equiv/spanner/grid/det", 1, 17127, 0, 29748, 149049, "66d9474ced397f1d"},
	{"equiv/spanner/grid/rand", 0, 15555, 0, 22948, 85538, "e500f8d6054845b1"},
	{"equiv/spanner/grid/rand", 1, 15555, 0, 23042, 86226, "f7e029e9de8f3bd1"},
	{"equiv/spanner/maximal-planar/det", 0, 17109, 0, 32364, 158459, "278ffbf77f900a0c"},
	{"equiv/spanner/maximal-planar/det", 1, 17109, 0, 32118, 150548, "2fe5659fddbcd1c5"},
	{"equiv/spanner/maximal-planar/rand", 0, 15537, 0, 22308, 81972, "598416f7dfc354b6"},
	{"equiv/spanner/maximal-planar/rand", 1, 15537, 0, 21655, 80692, "321d8e7ee0512bea"},
	{"equiv/spanner/outerplanar/det", 0, 16807, 0, 18642, 80636, "2abd3e602b890e28"},
	{"equiv/spanner/outerplanar/det", 1, 16807, 0, 18489, 80044, "293d49dd15f5930f"},
	{"equiv/spanner/outerplanar/rand", 0, 5765, 0, 11078, 39478, "56d1b176fadbb653"},
	{"equiv/spanner/outerplanar/rand", 1, 15492, 0, 14364, 50222, "2db056b5538b382c"},
	{"equiv/spanner/tree/det", 0, 17079, 0, 16165, 67584, "ccc488be99bd20a6"},
	{"equiv/spanner/tree/det", 1, 17079, 0, 18185, 69862, "9b2e6b9cf66ce0da"},
	{"equiv/spanner/tree/rand", 0, 15507, 0, 15852, 50013, "d3b37a42a1f84cca"},
	{"equiv/spanner/tree/rand", 1, 15507, 0, 16477, 51535, "f6db096b5ff0526a"},
	{"equiv/stage1/cycle/paper/det", 0, 50685, 0, 24471, 89651, "6a658eec3ab99295"},
	{"equiv/stage1/cycle/paper/det", 1, 50685, 0, 24907, 94052, "9cc570feb667f295"},
	{"equiv/stage1/cycle/paper/det", 2, 50685, 0, 24260, 90676, "aa648ee4df8f6654"},
	{"equiv/stage1/cycle/paper/rand", 0, 46173, 0, 20674, 74622, "bd8e8496ae5fe9b6"},
	{"equiv/stage1/cycle/paper/rand", 1, 46173, 0, 20109, 72241, "66475ce6aa25f144"},
	{"equiv/stage1/cycle/paper/rand", 2, 15869, 0, 16573, 60020, "ef81dd76a8d94c46"},
	{"equiv/stage1/cycle/practical/det", 0, 16952, 0, 19038, 71777, "2e73055fc54b9ac4"},
	{"equiv/stage1/cycle/practical/det", 1, 16952, 0, 19467, 75472, "eec82944a7556742"},
	{"equiv/stage1/cycle/practical/det", 2, 16952, 0, 18832, 72808, "8d7c7012b80b6b85"},
	{"equiv/stage1/cycle/practical/rand", 0, 15380, 0, 15747, 56062, "27ae973514a95ee3"},
	{"equiv/stage1/cycle/practical/rand", 1, 15380, 0, 15195, 54119, "335f2a30c27a5aac"},
	{"equiv/stage1/cycle/practical/rand", 2, 15380, 0, 16411, 58962, "44201bc82a1cca12"},
	{"equiv/stage1/grid/paper/det", 0, 1359854, 0, 68555, 297965, "a8c40befcfdd55cc"},
	{"equiv/stage1/grid/paper/det", 1, 152232, 0, 51924, 231925, "de2cf6067d1abdfa"},
	{"equiv/stage1/grid/paper/det", 2, 51431, 0, 43168, 203085, "30b31fd57a06711f"},
	{"equiv/stage1/grid/paper/rand", 0, 46173, 0, 32961, 117994, "3c215d187dfe6d60"},
	{"equiv/stage1/grid/paper/rand", 1, 46173, 0, 33034, 120623, "6a7fe987622cd84a"},
	{"equiv/stage1/grid/paper/rand", 2, 46173, 0, 32742, 118901, "f6541b8b48da4d22"},
	{"equiv/stage1/grid/practical/det", 0, 17209, 0, 34478, 176670, "c3da901a0fb67cfa"},
	{"equiv/stage1/grid/practical/det", 1, 17209, 0, 34591, 174985, "96656382ae48aa27"},
	{"equiv/stage1/grid/practical/det", 2, 17209, 0, 34418, 172725, "749f0fd41262b947"},
	{"equiv/stage1/grid/practical/rand", 0, 15380, 0, 25119, 92520, "3c41cab5184f94c6"},
	{"equiv/stage1/grid/practical/rand", 1, 15380, 0, 25189, 93253, "76962605baea15c6"},
	{"equiv/stage1/grid/practical/rand", 2, 15380, 0, 24900, 92560, "a2d571fb8300650d"},
	{"equiv/stage1/planar-plus-edges/paper/det", 0, 6321, 0, 35687, 196855, "4cc1c231dafae2e2"},
	{"equiv/stage1/planar-plus-edges/paper/det", 1, 51431, 0, 54283, 278464, "67c67c4d9214ee5d"},
	{"equiv/stage1/planar-plus-edges/paper/det", 2, 17698, 0, 44126, 232807, "604a37743652e134"},
	{"equiv/stage1/planar-plus-edges/paper/rand", 0, 15869, 0, 27646, 106980, "50343b02093d92f5"},
	{"equiv/stage1/planar-plus-edges/paper/rand", 1, 5653, 0, 19770, 81716, "0ac8da1528872c21"},
	{"equiv/stage1/planar-plus-edges/paper/rand", 2, 46173, 0, 33456, 130968, "4e2f089525d1736d"},
	{"equiv/stage1/planar-plus-edges/practical/det", 0, 6321, 0, 35687, 196855, "4cc1c231dafae2e2"},
	{"equiv/stage1/planar-plus-edges/practical/det", 1, 17209, 0, 45470, 246282, "700b1129bcda0ecb"},
	{"equiv/stage1/planar-plus-edges/practical/det", 2, 17209, 0, 43580, 228483, "4a1c953db332cf50"},
	{"equiv/stage1/planar-plus-edges/practical/rand", 0, 15380, 0, 27100, 102656, "5508c46696c29409"},
	{"equiv/stage1/planar-plus-edges/practical/rand", 1, 5653, 0, 19770, 81716, "0ac8da1528872c21"},
	{"equiv/stage1/planar-plus-edges/practical/rand", 2, 15380, 0, 25559, 99725, "401124fb030fd14d"},
	{"equiv/stage1/star/paper/det", 0, 322, 0, 656, 3784, "6060cae0eb84a353"},
	{"equiv/stage1/star/paper/det", 1, 322, 0, 656, 3981, "b5444defc85ec2c1"},
	{"equiv/stage1/star/paper/det", 2, 322, 0, 656, 3784, "c69d577b34be5d65"},
	{"equiv/stage1/star/paper/rand", 0, 301, 0, 370, 1704, "878ee490143c6fb6"},
	{"equiv/stage1/star/paper/rand", 1, 301, 0, 370, 1767, "0074809623a869a4"},
	{"equiv/stage1/star/paper/rand", 2, 845, 0, 2205, 6874, "2241e2143b01188f"},
	{"equiv/stage1/star/practical/det", 0, 322, 0, 656, 3784, "6060cae0eb84a353"},
	{"equiv/stage1/star/practical/det", 1, 322, 0, 656, 3981, "b5444defc85ec2c1"},
	{"equiv/stage1/star/practical/det", 2, 322, 0, 656, 3784, "c69d577b34be5d65"},
	{"equiv/stage1/star/practical/rand", 0, 301, 0, 370, 1704, "878ee490143c6fb6"},
	{"equiv/stage1/star/practical/rand", 1, 301, 0, 370, 1767, "0074809623a869a4"},
	{"equiv/stage1/star/practical/rand", 2, 845, 0, 2205, 6874, "2241e2143b01188f"},
	{"equiv/stage1/tree-plus-edges/paper/det", 0, 50685, 0, 30462, 124694, "58be02b185959161"},
	{"equiv/stage1/tree-plus-edges/paper/det", 1, 447653, 0, 41964, 164410, "7c9e671634e66578"},
	{"equiv/stage1/tree-plus-edges/paper/det", 2, 17441, 0, 24784, 101785, "a8cd8f0d3e94ee60"},
	{"equiv/stage1/tree-plus-edges/paper/rand", 0, 46173, 0, 26173, 88305, "122acb2c430c270f"},
	{"equiv/stage1/tree-plus-edges/paper/rand", 1, 15869, 0, 20621, 71901, "7c16df4f6e61d254"},
	{"equiv/stage1/tree-plus-edges/paper/rand", 2, 46173, 0, 26361, 89161, "cff5327c9d7ad11a"},
	{"equiv/stage1/tree-plus-edges/practical/det", 0, 16952, 0, 23920, 102966, "741d5afdf7d02eff"},
	{"equiv/stage1/tree-plus-edges/practical/det", 1, 16952, 0, 22798, 101864, "62d81bec99d17247"},
	{"equiv/stage1/tree-plus-edges/practical/det", 2, 16952, 0, 24564, 100295, "49bb0edfbe716014"},
	{"equiv/stage1/tree-plus-edges/practical/rand", 0, 15380, 0, 20099, 68667, "1a7ee7850658df3a"},
	{"equiv/stage1/tree-plus-edges/practical/rand", 1, 15380, 0, 20401, 70411, "6a34ecf81641fcd0"},
	{"equiv/stage1/tree-plus-edges/practical/rand", 2, 15380, 0, 20287, 70082, "191a994ba4ca324c"},
	{"equiv/tester/cycle/det-paper", 0, 56882, 70, 20043, 117746, "bfe9446318fbd30e"},
	{"equiv/tester/cycle/det-paper", 1, 24079, 66, 16639, 104155, "a7f84695481c9ca8"},
	{"equiv/tester/cycle/det-paper", 2, 55458, 54, 19754, 116308, "d7da4230e9db0974"},
	{"equiv/tester/cycle/det-practical", 0, 22186, 52, 15751, 94673, "2670adc20731f867"},
	{"equiv/tester/cycle/det-practical", 1, 23590, 66, 16509, 103305, "a7f84695481c9ca8"},
	{"equiv/tester/cycle/det-practical", 2, 22086, 53, 15345, 86403, "d7da4230e9db0974"},
	{"equiv/tester/cycle/en", 0, 4140, 56, 841, 23179, "8814eb3f2ec8053f"},
	{"equiv/tester/cycle/en", 1, 4195, 56, 869, 26904, "bfe9446318fbd30e"},
	{"equiv/tester/cycle/en", 2, 4242, 38, 1066, 47933, "a7f84695481c9ca8"},
	{"equiv/tester/cycle/rand-practical", 0, 20745, 40, 13707, 91720, "a7f84695481c9ca8"},
	{"equiv/tester/cycle/rand-practical", 1, 20872, 74, 13299, 71819, "900748c7773d6642"},
	{"equiv/tester/cycle/rand-practical", 2, 20789, 44, 14232, 93375, "d7da4230e9db0974"},
	{"equiv/tester/far-from-planar/det-paper", 0, 6564, 0, 38452, 225120, "391858720407a672"},
	{"equiv/tester/far-from-planar/det-paper", 1, 17977, 0, 49138, 289200, "5109563fd4e6dcd8"},
	{"equiv/tester/far-from-planar/det-paper", 2, 17941, 0, 47182, 248688, "96e230d40f0b6b56"},
	{"equiv/tester/far-from-planar/det-practical", 0, 6564, 0, 38452, 225120, "391858720407a672"},
	{"equiv/tester/far-from-planar/det-practical", 1, 17488, 0, 48572, 284696, "5109563fd4e6dcd8"},
	{"equiv/tester/far-from-planar/det-practical", 2, 17452, 0, 46616, 244632, "96e230d40f0b6b56"},
	{"equiv/tester/far-from-planar/en", 0, 354, 0, 2146, 26054, "2307a0ea1741a34c"},
	{"equiv/tester/far-from-planar/en", 1, 354, 0, 2146, 26783, "3af89eb7e820d9b2"},
	{"equiv/tester/far-from-planar/en", 2, 354, 0, 2146, 21810, "52e99c85b9001018"},
	{"equiv/tester/far-from-planar/rand-practical", 0, 5908, 0, 20459, 90656, "52e99c85b9001018"},
	{"equiv/tester/far-from-planar/rand-practical", 1, 15695, 0, 27869, 118089, "ffeffdb165602d05"},
	{"equiv/tester/far-from-planar/rand-practical", 2, 15647, 0, 28641, 116533, "ffeffdb165602d05"},
	{"equiv/tester/grid/det-paper", 0, 56404, 39, 47718, 691776, "8814eb3f2ec8053f"},
	{"equiv/tester/grid/det-paper", 1, 158659, 45, 56050, 693841, "8814eb3f2ec8053f"},
	{"equiv/tester/grid/det-paper", 2, 158615, 41, 56548, 769152, "bfe9446318fbd30e"},
	{"equiv/tester/grid/det-practical", 0, 22125, 51, 38101, 520036, "bfe9446318fbd30e"},
	{"equiv/tester/grid/det-practical", 1, 22012, 72, 37180, 357894, "8814eb3f2ec8053f"},
	{"equiv/tester/grid/det-practical", 2, 21986, 47, 37831, 434656, "8814eb3f2ec8053f"},
	{"equiv/tester/grid/en", 0, 4970, 25, 3660, 458021, "8814eb3f2ec8053f"},
	{"equiv/tester/grid/en", 1, 5010, 29, 3866, 503259, "8814eb3f2ec8053f"},
	{"equiv/tester/grid/en", 2, 5030, 31, 3847, 513197, "8814eb3f2ec8053f"},
	{"equiv/tester/grid/rand-practical", 0, 21755, 43, 28351, 481891, "bfe9446318fbd30e"},
	{"equiv/tester/grid/rand-practical", 1, 21833, 49, 29187, 518628, "bfe9446318fbd30e"},
	{"equiv/tester/grid/rand-practical", 2, 20293, 33, 29210, 566084, "8814eb3f2ec8053f"},
	{"equiv/tester/tree-plus-edges/det-paper", 0, 459219, 39, 64474, 578422, "698aa5b1824cf341"},
	{"equiv/tester/tree-plus-edges/det-paper", 1, 11223, 31, 29025, 434422, "c9a27dc954cb284b"},
	{"equiv/tester/tree-plus-edges/det-paper", 2, 158688, 45, 56721, 556349, "ccf86aaeb4790edd"},
	{"equiv/tester/tree-plus-edges/det-practical", 0, 21984, 57, 35943, 311514, "236b4fe7c3e8b007"},
	{"equiv/tester/tree-plus-edges/det-practical", 1, 11223, 31, 29025, 434422, "c9a27dc954cb284b"},
	{"equiv/tester/tree-plus-edges/det-practical", 2, 22187, 53, 37645, 416591, "698aa5b1824cf341"},
	{"equiv/tester/tree-plus-edges/en", 0, 3470, 36, 2142, 174176, "648860f68b779af0"},
	{"equiv/tester/tree-plus-edges/en", 1, 3551, 21, 2754, 319233, "005e40a4517229c9"},
	{"equiv/tester/tree-plus-edges/en", 2, 4961, 23, 2675, 312713, "698aa5b1824cf341"},
	{"equiv/tester/tree-plus-edges/rand-practical", 0, 21778, 49, 29891, 336804, "ea6f9013ea56780f"},
	{"equiv/tester/tree-plus-edges/rand-practical", 1, 20229, 44, 30959, 342809, "2d6c9a23d0819b60"},
	{"equiv/tester/tree-plus-edges/rand-practical", 2, 20313, 35, 30595, 384617, "cb74c90adf672dee"},
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
