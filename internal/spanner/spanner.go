// Package spanner implements the ultra-sparse spanner construction of
// Corollary 17: on an unweighted minor-free graph, the Stage I partition
// yields parts of diameter poly(1/eps) with at most eps*n crossing edges;
// the union of the part spanning trees with all crossing edges is a
// poly(1/eps)-spanner with (1+O(eps))n edges.
package spanner

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Options configures the spanner construction.
type Options struct {
	// Epsilon controls the size/stretch tradeoff: size (1+O(eps))n,
	// stretch poly(1/eps).
	Epsilon float64
	// Partition overrides the partitioning options (zero value: the
	// deterministic Stage I of Theorem 3; set Variant to
	// partition.Randomized for the Theorem 4 variant).
	Partition partition.Options
	// Workers is passed through to congest.Config.Workers (0: GOMAXPROCS).
	// Results are byte-identical for every value.
	Workers int
	// Cancel is passed through to congest.Config.Cancel: when it becomes
	// readable the run aborts with congest.ErrCanceled. Pass a context's
	// Done() channel; nil disables cancellation.
	Cancel <-chan struct{}
	// Deadline is passed through to congest.Config.Deadline: a non-zero
	// wall-clock instant after which the run aborts with
	// congest.ErrDeadlineExceeded at the next barrier.
	Deadline time.Time
}

// NodeSpanner is a node's local view of the spanner: which of its ports
// carry spanner edges. Views are symmetric across each edge.
type NodeSpanner struct {
	Ports []bool
	// PartRoot identifies the node's part.
	PartRoot int64
	// StretchBound is the part-diameter-based stretch guarantee agreed
	// part-wide (2 * Stage I tree depth).
	StretchBound int
}

type depthMsg struct{ D int64 }

func (m depthMsg) Bits() int { return 2 + congest.BitsForValue(m.D) }

// depthProbe is the stretch certificate's depth probe: a node at depth d
// holds depthMsg{d} and relays it to its children. Depth message kinds
// 96..127 are reserved for package spanner.
var depthProbe = congest.RegisterDepthMessage(96, func(d int64) congest.Message { return depthMsg{D: d} })

// cmbMaxDepth is the depth convergecast's combiner, registered so the
// convergecast runs by reference. Combiner kinds 96..127 are reserved
// for package spanner.
var cmbMaxDepth = congest.RegisterCombiner(96, combineMaxDepth)

// combineMaxDepth keeps the maximum depth contribution.
func combineMaxDepth(_ int64, own congest.Message, ch []congest.Message) congest.Message {
	best := own.(depthMsg).D
	for _, c := range ch {
		if v := c.(depthMsg).D; v > best {
			best = v
		}
	}
	return depthMsg{D: best}
}

type rootMsg struct{ Root int64 }

func (m rootMsg) Bits() int { return 2 + congest.BitsForValue(m.Root) }

// VerifySymmetric checks that both endpoints of every spanner edge agree
// on membership.
func VerifySymmetric(g *graph.Graph, views []*NodeSpanner) error {
	for v := 0; v < g.N(); v++ {
		for p, keep := range views[v].Ports {
			w := int(g.Neighbors(v)[p])
			// Find v's port at w.
			q := -1
			for i, x := range g.Neighbors(w) {
				if int(x) == v {
					q = i
					break
				}
			}
			if views[w].Ports[q] != keep {
				return fmt.Errorf("spanner: edge {%d,%d} membership asymmetric", v, w)
			}
		}
	}
	return nil
}

// MeasureStretch samples `pairs` connected node pairs and returns the
// maximum and mean ratio of spanner distance to graph distance. Because
// every non-spanner edge stays within a part, the per-edge stretch bound
// is the part diameter bound; sampling verifies it end-to-end.
func MeasureStretch(g, sp *graph.Graph, pairs int, rng *rand.Rand) (maxStretch float64, meanStretch float64) {
	if g.N() == 0 {
		return 1, 1
	}
	count := 0
	var sum float64
	maxStretch = 1
	for i := 0; i < pairs; i++ {
		u := rng.Intn(g.N())
		bg := g.BFS(u)
		bs := sp.BFS(u)
		v := rng.Intn(g.N())
		if u == v || bg.Dist[v] <= 0 {
			continue
		}
		if bs.Dist[v] < 0 {
			return -1, -1 // spanner disconnected within a component: invalid
		}
		r := float64(bs.Dist[v]) / float64(bg.Dist[v])
		if r > maxStretch {
			maxStretch = r
		}
		sum += r
		count++
	}
	if count == 0 {
		return 1, 1
	}
	return maxStretch, sum / float64(count)
}
