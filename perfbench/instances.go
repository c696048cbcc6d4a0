package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// planarPlusNoise returns a random maximal planar graph on n nodes plus
// `extra` distinct random non-edges, and its certified distance from
// planarity (graph.EulerDistanceLowerBound: every planar graph has at
// most 3n-6 edges, so the extra edges must all go). It feeds one
// graph.Builder, so it runs in O(m log m); graph.PlanarPlusRandomEdges
// rebuilds the graph after every added edge, which is O(extra*m).
func planarPlusNoise(n, extra int, rng *rand.Rand) (*graph.Graph, int) {
	base := graph.MaximalPlanar(n, rng)
	if free := n*(n-1)/2 - base.M(); extra > free {
		panic(fmt.Sprintf("perfbench: %d extra edges requested, only %d non-edges exist", extra, free))
	}
	b := graph.NewBuilder(n)
	for _, e := range base.Edges() {
		b.AddEdge(int(e.U), int(e.V))
	}
	added := make(map[graph.Edge]bool, extra)
	for len(added) < extra {
		u, v := rng.Intn(n), rng.Intn(n)
		e := graph.NormEdge(u, v)
		if u == v || added[e] || base.HasEdge(u, v) {
			continue
		}
		added[e] = true
		b.AddEdge(u, v)
	}
	g := b.Build()
	return g, graph.EulerDistanceLowerBound(g)
}

// thinPlanar returns a random maximal planar graph on n nodes with each
// edge kept with probability keep: planar (a subgraph of a planar graph),
// usually disconnected into a few blocks of varied size.
func thinPlanar(n int, keep float64, rng *rand.Rand) *graph.Graph {
	base := graph.MaximalPlanar(n, rng)
	b := graph.NewBuilder(n)
	for _, e := range base.Edges() {
		if rng.Float64() < keep {
			b.AddEdge(int(e.U), int(e.V))
		}
	}
	return b.Build()
}

// plantedK33 returns a planar graph on n-k nodes joined by one edge to a
// K3,3 subdivision on k nodes: non-planar (Kuratowski), within the Euler
// bound, so deciding it needs the block decomposition and a left-right
// run on the planted block.
func plantedK33(n, k int, rng *rand.Rand) *graph.Graph {
	g := graph.DisjointUnion(thinPlanar(n-k, 0.7, rng), graph.K33Subdivision(k))
	b := graph.NewBuilder(n)
	for _, e := range g.Edges() {
		b.AddEdge(int(e.U), int(e.V))
	}
	b.AddEdge(rng.Intn(n-k), n-k+rng.Intn(k))
	return b.Build()
}

// logUniform maps stratum s of k, with jitter u in [0,1), onto a size
// in [lo, hi]; a uniform s and u give a log-uniform size.
func logUniform(lo, hi float64, s, k int, u float64) int {
	return int(math.Round(lo * math.Pow(hi/lo, (float64(s)+u)/float64(k))))
}

// jitter is the j-th point of the golden-ratio sequence in [0,1): evenly
// spread for every prefix, and the same for every seed. Drawn from the
// seed instead, the size jitter of the few largest requests moved the
// serve-mixed latency tail from seed to seed.
func jitter(j int) float64 {
	return math.Mod(float64(j)*0.6180339887498949, 1)
}
