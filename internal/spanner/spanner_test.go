package spanner

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
)

// TestSpannerEngineEquivalence builds the spanner on the sequential
// engine (Workers=1) and on the worker pool (Workers=4) for fixed seeds,
// across planar families and both Stage I variants. The two must return
// identical Metrics, per-node views and spanner edges, both endpoints of
// every edge must agree on it, and the spanner of a connected input must
// be connected. The golden table pins the first four families' absolute
// values; the pool steps only barriers of at least 64 due nodes, so the
// last family is large enough to reach it.
func TestSpannerEngineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid(7, 8)},
		{"maximal-planar", graph.MaximalPlanar(50, rng)},
		{"outerplanar", graph.Outerplanar(35, rng)},
		{"tree", graph.RandomTree(40, rng)},
		{"maximal-planar-90", graph.MaximalPlanar(90, rand.New(rand.NewSource(12)))},
	}
	variants := []partition.Variant{partition.Deterministic, partition.Randomized}
	for _, fam := range families {
		for _, variant := range variants {
			for seed := int64(0); seed < 2; seed++ {
				name := fmt.Sprintf("%s/variant%d/seed%d", fam.name, variant, seed)
				opts := Options{Epsilon: 0.3, Workers: 1, Partition: partition.Options{
					Epsilon: 0.3, Variant: variant, Schedule: partition.PracticalSchedule}}
				ssp, sviews, sm, sErr := Collect(fam.g, opts, seed)
				opts.Workers = 4
				psp, pviews, pm, pErr := Collect(fam.g, opts, seed)
				if sErr != nil || pErr != nil {
					t.Fatalf("%s: sequential: %v, pool: %v", name, sErr, pErr)
				}
				if !reflect.DeepEqual(sm, pm) {
					t.Fatalf("%s: metrics mismatch:\nworkers=1: %+v\nworkers=4: %+v", name, sm, pm)
				}
				if !reflect.DeepEqual(sviews, pviews) {
					t.Fatalf("%s: views mismatch", name)
				}
				if !reflect.DeepEqual(ssp.Edges(), psp.Edges()) {
					t.Fatalf("%s: spanner subgraph mismatch", name)
				}
				if err := VerifySymmetric(fam.g, sviews); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if fam.g.IsConnected() && !ssp.IsConnected() {
					t.Fatalf("%s: spanner of a connected input is disconnected", name)
				}
			}
		}
	}
}

func TestSpannerOnGrid(t *testing.T) {
	g := graph.Grid(8, 8)
	eps := 0.4
	sp, views, _, err := Collect(g, Options{Epsilon: eps}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySymmetric(g, views); err != nil {
		t.Fatal(err)
	}
	// Size: (1 + O(eps)) n for minor-free inputs (Corollary 17).
	bound := (1 + 2*eps) * float64(g.N())
	if float64(sp.M()) > bound {
		t.Fatalf("spanner has %d edges, bound %.1f", sp.M(), bound)
	}
	// Connectivity must be preserved per component.
	if !sp.IsConnected() {
		t.Fatal("grid spanner must be connected")
	}
	// Stretch: bounded by the agreed per-part bound.
	rng := rand.New(rand.NewSource(2))
	maxS, _ := MeasureStretch(g, sp, 200, rng)
	if maxS < 0 {
		t.Fatal("spanner disconnected inside a component")
	}
	worst := 0
	for _, v := range views {
		if v.StretchBound > worst {
			worst = v.StretchBound
		}
	}
	if maxS > float64(worst)+1 {
		t.Fatalf("measured stretch %.1f exceeds certified bound %d", maxS, worst)
	}
}

func TestSpannerOnPlanarFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []*graph.Graph{
		graph.MaximalPlanar(50, rng),
		graph.RandomPlanar(60, 120, rng),
		graph.Outerplanar(40, rng),
		graph.Cycle(30),
	}
	for i, g := range cases {
		sp, views, _, err := Collect(g, Options{Epsilon: 0.3}, int64(10+i))
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifySymmetric(g, views); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if float64(sp.M()) > (1+2*0.3)*float64(g.N()) {
			t.Fatalf("case %d: %d edges exceed size bound", i, sp.M())
		}
		maxS, _ := MeasureStretch(g, sp, 100, rng)
		if maxS < 0 {
			t.Fatalf("case %d: spanner disconnected", i)
		}
	}
}

func TestSpannerTreeInput(t *testing.T) {
	// A tree's spanner is the tree itself (stretch 1).
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomTree(40, rng)
	sp, _, _, err := Collect(g, Options{Epsilon: 0.5}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sp.M() != g.M() {
		t.Fatalf("tree spanner must keep all %d edges, has %d", g.M(), sp.M())
	}
	maxS, mean := MeasureStretch(g, sp, 100, rng)
	if maxS != 1 || mean != 1 {
		t.Fatalf("tree stretch must be 1, got max %.2f mean %.2f", maxS, mean)
	}
}

func TestSpannerRandomizedPartition(t *testing.T) {
	g := graph.Grid(7, 7)
	opts := Options{
		Epsilon:   0.4,
		Partition: partition.Options{Epsilon: 0.4, Variant: partition.Randomized},
	}
	sp, views, _, err := Collect(g, opts, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySymmetric(g, views); err != nil {
		t.Fatal(err)
	}
	if !sp.IsConnected() {
		t.Fatal("spanner must be connected")
	}
}

func TestSpannerPreservesComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.DisjointUnion(graph.Grid(4, 4), graph.Cycle(9), graph.RandomTree(11, rng))
	sp, _, _, err := Collect(g, Options{Epsilon: 0.3}, 8)
	if err != nil {
		t.Fatal(err)
	}
	_, kg := g.Components()
	_, ks := sp.Components()
	if kg != ks {
		t.Fatalf("component count changed: %d -> %d", kg, ks)
	}
}
