package partition

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/planar"
)

// equivProcs are the GOMAXPROCS values the engine-equivalence tests run
// each cell under. The collectors take no worker count and the engine's
// default follows GOMAXPROCS, so 1 gives the sequential engine and 4 the
// worker pool, whatever the host's core count.
var equivProcs = []int{1, 4}

type collected struct {
	outs []*Outcome
	ids  []int64
	res  *congest.Result
}

// collectEquiv runs collect once per equivProcs value and fails the test
// unless every run returns the same ids, Result and per-node outcomes.
// It returns the sequential run.
func collectEquiv(t *testing.T, name string, collect func() ([]*Outcome, []int64, *congest.Result, error)) collected {
	t.Helper()
	var first collected
	for i, procs := range equivProcs {
		prev := runtime.GOMAXPROCS(procs)
		outs, ids, res, err := collect()
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("%s: GOMAXPROCS=%d: %v", name, procs, err)
		}
		got := collected{outs, ids, res}
		if i == 0 {
			first = got
			continue
		}
		if !reflect.DeepEqual(first.ids, ids) {
			t.Fatalf("%s: id assignment differs at GOMAXPROCS=%d", name, procs)
		}
		if !reflect.DeepEqual(first.res, res) {
			t.Fatalf("%s: result differs at GOMAXPROCS=%d:\nsequential: %+v\npool:       %+v",
				name, procs, first.res, res)
		}
		if !reflect.DeepEqual(first.outs, outs) {
			t.Fatalf("%s: per-node outcomes differ at GOMAXPROCS=%d", name, procs)
		}
	}
	return first
}

// TestStageIEngineEquivalence runs Stage I (both schedules, both
// variants) on the sequential engine and on the worker pool for fixed
// seeds across several graph families. The two must produce identical
// ids, Results and per-node outcomes; a planar input must never be
// rejected; and every accepted partition must pass ValidateOutcomes with
// its phase's diameter bound. The golden table pins the first five
// families' absolute values; the pool steps only barriers of at least 64
// due nodes, so the last two families are large enough to reach it.
func TestStageIEngineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	farG, _ := graph.PlanarPlusRandomEdges(60, 40, rng)
	far90, _ := graph.PlanarPlusRandomEdges(90, 60, rand.New(rand.NewSource(5)))
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid(7, 9)},
		{"cycle", graph.Cycle(41)},
		{"tree-plus-edges", graph.TreePlusRandomEdges(50, 12, rand.New(rand.NewSource(7)))},
		{"planar-plus-edges", farG},
		{"star", graph.Star(17)},
		{"grid-10x10", graph.Grid(10, 10)},
		{"planar-plus-edges-90", far90},
	}
	schedules := []Schedule{PaperSchedule, PracticalSchedule}
	variants := []Variant{Deterministic, Randomized}
	for _, fam := range families {
		isPlanar := planar.IsPlanar(fam.g)
		for _, sched := range schedules {
			for _, variant := range variants {
				for seed := int64(0); seed < 3; seed++ {
					opts := Options{Epsilon: 0.25, Schedule: sched, Variant: variant}
					name := fmt.Sprintf("%s/%v/variant%d/seed%d", fam.name, sched, variant, seed)
					c := collectEquiv(t, name, func() ([]*Outcome, []int64, *congest.Result, error) {
						return CollectStageI(fam.g, opts, seed)
					})
					if c.res.Rejected() {
						if isPlanar {
							t.Fatalf("%s: planar input rejected", name)
						}
						continue
					}
					if err := ValidateOutcomes(fam.g, c.ids, c.outs, finalDiamBound(c.outs)); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
			}
		}
	}
}

// TestENEngineEquivalence does the same for the Elkin–Neiman baseline:
// the sequential engine and the worker pool produce identical Results and
// per-node cluster outcomes, and every clustering is a valid partition.
// Only the 64-node grid reaches the pool; the last family is added so a
// second one does.
func TestENEngineEquivalence(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid(8, 8)},
		{"cycle", graph.Cycle(37)},
		{"tree-plus-edges", graph.TreePlusRandomEdges(60, 15, rand.New(rand.NewSource(3)))},
		{"star", graph.Star(21)},
		{"tree-plus-edges-100", graph.TreePlusRandomEdges(100, 25, rand.New(rand.NewSource(6)))},
	}
	for _, fam := range families {
		for _, eps := range []float64{0.25, 0.5} {
			for seed := int64(0); seed < 3; seed++ {
				name := fmt.Sprintf("%s/eps%v/seed%d", fam.name, eps, seed)
				c := collectEquiv(t, name, func() ([]*Outcome, []int64, *congest.Result, error) {
					return CollectEN(fam.g, eps, seed)
				})
				if err := ValidateOutcomes(fam.g, c.ids, c.outs, 0); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
	}
}
