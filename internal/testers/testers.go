// Package testers implements the minor-free property testers of
// Corollary 16: distributed one-sided testing of cycle-freeness and
// bipartiteness under the promise that the input graph is minor-free.
// The algorithms partition the graph with Stage I (deterministic,
// Theorem 3) or its randomized variant (Theorem 4) and verify the
// property within each part, where a BFS tree makes both checks local.
package testers

import (
	"time"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Property is a testable property of Corollary 16.
type Property int

// Properties.
const (
	// CycleFreeness rejects iff a part contains a non-tree edge.
	CycleFreeness Property = iota + 1
	// Bipartiteness rejects iff a part contains an edge joining two
	// nodes of equal BFS-level parity (an odd cycle witness).
	Bipartiteness
)

// String implements fmt.Stringer.
func (p Property) String() string {
	switch p {
	case CycleFreeness:
		return "cycle-freeness"
	case Bipartiteness:
		return "bipartiteness"
	default:
		return "unknown"
	}
}

// Options configures a minor-free property test.
type Options struct {
	// Epsilon is the distance parameter; the partition is run with the
	// edge-cut parameter set to it (Corollary 16 prescribes "slightly
	// below" epsilon; the half used for planarity covers it).
	Epsilon float64
	// Partition overrides the partitioning options; zero value derives
	// the deterministic Stage I from Epsilon. Set Variant to
	// partition.Randomized for the O(poly(1/eps)(log(1/delta)+log* n))
	// variant.
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

// Run executes the distributed property tester on g over the simulator
// and returns the run result (StopOnReject semantics): on inputs with the
// property every node accepts; on minor-free inputs eps-far from the
// property at least one node rejects. Panics on invalid Options (Epsilon
// outside (0,1]), like core.RunTester.
func Run(g *graph.Graph, prop Property, opts Options, seed int64) (*core.RunResult, error) {
	plan := stageIPlanFor(g, opts)
	res, err := congest.RunStep(testersConfig(g, opts, seed), func(node int) congest.StepProgram {
		return newPropertyProgram(plan, prop)
	})
	return newRunResult(res, err)
}
