// Package oracle is the exact sequential planarity decision layer: it
// fronts the left–right tester in internal/planar with the classic
// shortcuts — the m > 3n−6 Euler rejection and connected/biconnected
// component decomposition, so components are tested independently and a
// single non-planar block answers the whole graph. It is the ground
// truth the differential corpus (internal/corpus) compares the CONGEST
// tester against, and the engine behind planard's mode=exact fast path.
//
// Unlike the distributed tester, the oracle is exact: it accepts iff the
// graph is planar, with no distance parameter and no randomness. A graph
// is planar iff every biconnected component is planar, so the oracle
// runs the O(n) left–right test only on the nontrivial blocks (≥ 5
// nodes, within the Euler bound); everything else is decided by
// counting.
package oracle

import (
	"repro/internal/graph"
	"repro/internal/planar"
)

// Result reports the oracle's verdict together with how it was reached,
// so callers (and the corpus report) can see which shortcut decided.
type Result struct {
	// Planar is the exact verdict: true iff the input graph is planar.
	Planar bool

	// Components is the number of connected components.
	Components int
	// Bicomps is the number of biconnected components (blocks).
	Bicomps int
	// TrivialBicomps counts blocks decided without a planarity run:
	// fewer than 5 nodes (always planar).
	TrivialBicomps int
	// EulerRejected is true when the whole graph was rejected by the
	// global m > 3n−6 count before any decomposition.
	EulerRejected bool
	// EulerRejects counts blocks rejected by their local Euler bound.
	EulerRejects int
	// LRTested counts blocks that required a left–right planarity run.
	LRTested int
}

// Decide runs the exact planarity decision on g and reports how the
// verdict was reached. It is deterministic and never errs on either
// side.
func Decide(g *graph.Graph) Result {
	var res Result
	// Global Euler rejection: any planar graph on n >= 3 nodes has at
	// most 3n-6 edges, so a denser graph is non-planar without looking
	// at its structure.
	if g.N() >= 3 && g.M() > 3*g.N()-6 {
		res.EulerRejected = true
		res.Planar = false
		return res
	}
	// Degenerate sizes: fewer than 5 nodes (K4 is planar) or no edges.
	if g.N() < 5 || g.M() == 0 {
		res.Planar = true
		_, res.Components = g.Components()
		return res
	}
	bicomps, components := BiconnectedComponents(g)
	res.Components = components
	res.Bicomps = len(bicomps)
	res.Planar = true

	// Scratch relabeling table, reset per block via the touched list so
	// repeated small blocks stay allocation-light.
	relabel := make([]int32, g.N())
	for i := range relabel {
		relabel[i] = -1
	}
	var touched []int32

	for _, comp := range bicomps {
		// Count the block's nodes by relabeling them densely.
		touched = touched[:0]
		k := int32(0)
		for _, e := range comp {
			for _, v := range [2]int32{e.U, e.V} {
				if relabel[v] < 0 {
					relabel[v] = k
					k++
					touched = append(touched, v)
				}
			}
		}
		decidePlanar := func() bool {
			// A block on fewer than 5 nodes cannot contain a K5 or
			// K3,3 subdivision.
			if k < 5 {
				res.TrivialBicomps++
				return true
			}
			if len(comp) > 3*int(k)-6 {
				res.EulerRejects++
				return false
			}
			res.LRTested++
			if len(comp) == g.M() {
				// One block holds every edge: test g itself rather
				// than a relabeled copy of it.
				return planar.IsPlanar(g)
			}
			b := graph.NewBuilder(int(k))
			for _, e := range comp {
				b.AddEdge(int(relabel[e.U]), int(relabel[e.V]))
			}
			return planar.IsPlanar(b.Build())
		}
		ok := decidePlanar()
		for _, v := range touched {
			relabel[v] = -1
		}
		if !ok {
			res.Planar = false
			return res
		}
	}
	return res
}

// IsPlanar reports whether g is planar, exactly.
func IsPlanar(g *graph.Graph) bool {
	return Decide(g).Planar
}
