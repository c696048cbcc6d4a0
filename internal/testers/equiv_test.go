package testers

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/planar"
)

// runEquiv runs one tester cell on the sequential engine (Workers=1) and
// on the worker pool (Workers=4), fails the test unless both return the
// same RunResult, and returns it.
func runEquiv(t *testing.T, name string, opts Options, run func(Options) (*core.RunResult, error)) *core.RunResult {
	t.Helper()
	opts.Workers = 1
	sr, sErr := run(opts)
	opts.Workers = 4
	pr, pErr := run(opts)
	if sErr != nil || pErr != nil {
		t.Fatalf("%s: sequential: %v, pool: %v", name, sErr, pErr)
	}
	if !reflect.DeepEqual(sr, pr) {
		t.Fatalf("%s: result mismatch:\nworkers=1: %+v\nworkers=4: %+v", name, sr, pr)
	}
	return sr
}

// TestMinorFreeEngineEquivalence runs the minor-free property testers on
// the sequential engine and on the worker pool for fixed seeds, across
// accepting and rejecting families, both properties and both Stage I
// variants. The two must return identical RunResults, and, the error
// being one-sided, a forest must pass cycle-freeness and a bipartite
// graph bipartiteness. The golden table pins the first four families'
// absolute values; the pool steps only barriers of at least 64 due nodes,
// so the last family is large enough to reach it.
func TestMinorFreeEngineEquivalence(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid(7, 7)},                                                          // accepts both properties' bipartite side
		{"tree", graph.RandomTree(50, rand.New(rand.NewSource(1)))},                         // accepts cycle-freeness
		{"tree-plus-edges", graph.TreePlusRandomEdges(60, 20, rand.New(rand.NewSource(2)))}, // rejects cycle-freeness
		{"odd-chords", graph.GridWithOddChords(6, 6, 5, rand.New(rand.NewSource(3)))},       // rejects bipartiteness
		{"grid-10x10", graph.Grid(10, 10)},
	}
	variants := []partition.Variant{partition.Deterministic, partition.Randomized}
	for _, fam := range families {
		for _, prop := range []Property{CycleFreeness, Bipartiteness} {
			mustAccept := (prop == CycleFreeness && fam.g.IsForest()) ||
				(prop == Bipartiteness && fam.g.IsBipartite())
			for _, variant := range variants {
				for seed := int64(0); seed < 2; seed++ {
					name := fmt.Sprintf("%s/%v/variant%d/seed%d", fam.name, prop, variant, seed)
					opts := Options{Epsilon: 0.2, Partition: partition.Options{
						Epsilon: 0.2, Variant: variant, Schedule: partition.PracticalSchedule}}
					r := runEquiv(t, name, opts, func(o Options) (*core.RunResult, error) {
						return Run(fam.g, prop, o, seed)
					})
					if mustAccept && r.Rejected {
						t.Fatalf("%s: input has the property but was rejected", name)
					}
				}
			}
		}
	}
}

// TestHereditaryEngineEquivalence does the same for the generic
// hereditary-property tester, with outerplanarity as the predicate: the
// two engines agree, and an outerplanar input is accepted.
func TestHereditaryEngineEquivalence(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"outerplanar", graph.Outerplanar(30, rand.New(rand.NewSource(5)))}, // accepts
		{"cycle", graph.Cycle(25)}, // accepts
		{"grid", graph.Grid(6, 6)}, // rejects (not outerplanar)
		{"outerplanar-90", graph.Outerplanar(90, rand.New(rand.NewSource(6)))},
	}
	for _, fam := range families {
		mustAccept := planar.IsOuterplanar(fam.g)
		for seed := int64(0); seed < 2; seed++ {
			name := fmt.Sprintf("%s/seed%d", fam.name, seed)
			opts := Options{Epsilon: 0.25, Partition: partition.Options{
				Epsilon: 0.25, Schedule: partition.PracticalSchedule}}
			r := runEquiv(t, name, opts, func(o Options) (*core.RunResult, error) {
				return RunHereditary(fam.g, planar.IsOuterplanar, o, seed)
			})
			if mustAccept && r.Rejected {
				t.Fatalf("%s: outerplanar input rejected", name)
			}
		}
	}
}
