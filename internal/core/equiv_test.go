package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/planar"
)

// TestTesterEngineEquivalence runs the full tester on the sequential
// engine (Workers=1) and on the worker pool (Workers=4) for fixed seeds,
// across accepting and rejecting families and every partitioning
// configuration: deterministic with the paper's and the practical
// schedule, randomized, and the Elkin–Neiman baseline. The two must
// return identical RunResults, and, the tester's error being one-sided, a
// planar input must be accepted. The golden table pins the same cells'
// absolute values; the 64-node grid and the 70-node family are large
// enough for the pool, which steps only barriers of at least 64 due nodes.
func TestTesterEngineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	far, _ := graph.PlanarPlusRandomEdges(60, 50, rng)
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid(8, 8)},
		{"far-from-planar", far},
		{"tree-plus-edges", graph.TreePlusRandomEdges(70, 20, rand.New(rand.NewSource(8)))},
		{"cycle", graph.Cycle(33)},
	}
	optsList := []Options{
		{Epsilon: 0.25},
		{Epsilon: 0.25, Partition: partition.Options{Epsilon: 0.25, Schedule: partition.PracticalSchedule}},
		{Epsilon: 0.25, Partition: partition.Options{Epsilon: 0.25, Variant: partition.Randomized, Schedule: partition.PracticalSchedule}},
		{Epsilon: 0.25, UseEN: true},
	}
	for _, fam := range families {
		isPlanar := planar.IsPlanar(fam.g)
		for oi, opts := range optsList {
			for seed := int64(0); seed < 3; seed++ {
				seqOpts, parOpts := opts, opts
				seqOpts.Workers, parOpts.Workers = 1, 4
				sr, sErr := RunTester(fam.g, seqOpts, seed)
				pr, pErr := RunTester(fam.g, parOpts, seed)
				if sErr != nil || pErr != nil {
					t.Fatalf("%s/opts%d/seed%d: sequential: %v, pool: %v", fam.name, oi, seed, sErr, pErr)
				}
				if !reflect.DeepEqual(sr, pr) {
					t.Fatalf("%s/opts%d/seed%d: result mismatch:\nworkers=1: %+v\nworkers=4: %+v",
						fam.name, oi, seed, sr, pr)
				}
				if isPlanar && sr.Rejected {
					t.Fatalf("%s/opts%d/seed%d: planar input rejected", fam.name, oi, seed)
				}
			}
		}
	}
}
