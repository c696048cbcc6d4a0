package core

import (
	"math/rand"
	"time"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
)

// Options configures the end-to-end planarity tester (Theorem 1).
type Options struct {
	// Epsilon is the distance parameter: graphs eps-far from planarity
	// (more than eps*m edge removals needed) are rejected whp.
	Epsilon float64
	// Partition overrides the Stage I options (zero value: deterministic
	// Stage I with edge-cut parameter Epsilon).
	Partition partition.Options
	// UseEN replaces Stage I with the Elkin–Neiman-style random-shift
	// clustering (the O(log^2 n)-round variant of §1.1; claims row E11 in
	// docs/claims.txt).
	UseEN bool
	// StageII overrides the Stage II options (zero value: derived from
	// Epsilon).
	StageII StageIIOptions
	// Workers is passed through to congest.Config.Workers: the number of
	// engine worker goroutines stepping due nodes within a barrier
	// (0: GOMAXPROCS). Results are byte-identical for every value.
	Workers int
	// Cancel is passed through to congest.Config.Cancel: when it becomes
	// readable the run aborts with congest.ErrCanceled. Pass a context's
	// Done() channel; nil disables cancellation.
	Cancel <-chan struct{}
	// Deadline is passed through to congest.Config.Deadline: a non-zero
	// wall-clock instant after which the run aborts with
	// congest.ErrDeadlineExceeded at the next barrier.
	Deadline time.Time
	// Checkpoint is passed through to congest.Config.Checkpoint: a
	// configured sink receives periodic engine snapshots that
	// ResumeTester can continue from.
	Checkpoint congest.CheckpointConfig
	// Probe, when non-nil, enables per-phase attribution on the step
	// execution path: Stage I announces one phase per merging phase and
	// Stage II announces its prelude and op-script phases, so
	// RunResult.Phases reports where the run spent its wall time, wakes,
	// barriers, messages, and bits. All deterministic result fields are
	// byte-identical with and without a probe. Phase names are interned on
	// the probe before the run starts; reusing one probe across runs
	// accumulates nothing (stats live in the engine), but is only safe
	// sequentially.
	Probe *obs.Probe
	// Trace, when non-nil, receives structured run events (phase
	// transitions, checkpoints, fast-forward windows, merge decisions,
	// abort/end) as they happen. Tracing requires Probe to attribute
	// phase events; without one, only run-level events are emitted.
	Trace obs.TraceSink
	// Progress, when non-nil, is updated at every engine barrier with the
	// current round, barrier count, and phase; readers may snapshot it
	// concurrently (planard serves it on GET /v1/jobs/{id}).
	Progress *obs.Progress
}

func (o Options) withDefaults() Options {
	if o.Epsilon <= 0 || o.Epsilon > 1 {
		panic("core: Epsilon must be in (0,1]")
	}
	if o.Partition.Epsilon == 0 {
		o.Partition.Epsilon = o.Epsilon
	}
	if o.StageII.Epsilon == 0 {
		o.StageII.Epsilon = o.Epsilon / 2 // parts are (eps/2)-far (Claim 3)
	}
	if o.Probe != nil {
		// Intern the Stage II phases here and hand the probe to Stage I,
		// whose plan compiler interns the per-phase names. Interning is
		// idempotent, so calling withDefaults more than once (or resuming
		// a run with a fresh probe) yields the same name set.
		o.StageII.partCtxPhase = o.Probe.Phase("stage2/partctx")
		o.StageII.opsPhase = o.Probe.Phase("stage2/ops")
		o.Partition.Probe = o.Probe
	}
	return o
}

// RunResult summarizes one tester execution.
type RunResult struct {
	Rejected   bool
	RejectedBy int // number of rejecting nodes
	Metrics    congest.Metrics
	// Phases is the per-phase attribution table; non-nil exactly when the
	// run was configured with an Options.Probe.
	Phases obs.PhaseBreakdown
}

// RunTester executes the complete one-sided distributed planarity tester
// on g with the given seed and returns the global verdict and metrics:
// Stage I partitions the graph (or the Elkin–Neiman baseline does), and
// Stage II checks each part. On planar inputs every node accepts; on
// eps-far inputs at least one node rejects whp. It uses StopOnReject
// semantics: the run ends at the first reject.
//
// The partitioning stage hands each node over to the Stage II state
// machine at the exact round it completes for its part.
func RunTester(g *graph.Graph, opts Options, seed int64) (*RunResult, error) {
	o := opts.withDefaults()
	if o.UseEN {
		res, err := congest.RunStep(testerConfig(g, seed, o), func(node int) congest.StepProgram {
			return partition.NewENNode(o.Partition.Epsilon, func(api *congest.StepAPI, po *partition.Outcome) congest.Status {
				return congest.BecomeStep(NewStageIINode(po, o.StageII))
			})
		})
		return newRunResult(res, err)
	}
	plan := partition.NewStageIPlan(o.Partition, g.N())
	res, err := congest.RunStep(testerConfig(g, seed, o), func(node int) congest.StepProgram {
		return plan.NewNode(func(api *congest.StepAPI, po *partition.Outcome) congest.Status {
			return congest.BecomeStep(NewStageIINode(po, o.StageII))
		})
	})
	return newRunResult(res, err)
}

func testerConfig(g *graph.Graph, seed int64, opts Options) congest.Config {
	ids := make([]int64, g.N())
	rng := rand.New(rand.NewSource(seed ^ 0x7A31))
	for i, p := range rng.Perm(g.N()) {
		ids[i] = int64(p + 1)
	}
	return congest.Config{
		Graph:        g,
		Seed:         seed,
		IDs:          ids,
		StopOnReject: true,
		MaxRounds:    1 << 40,
		Workers:      opts.Workers,
		Cancel:       opts.Cancel,
		Deadline:     opts.Deadline,
		Checkpoint:   opts.Checkpoint,
		Probe:        opts.Probe,
		Trace:        opts.Trace,
		Progress:     opts.Progress,
	}
}

func newRunResult(res *congest.Result, err error) (*RunResult, error) {
	if err != nil {
		return nil, err
	}
	return &RunResult{
		Rejected:   res.Rejected(),
		RejectedBy: res.RejectCount(),
		Metrics:    res.Metrics,
		Phases:     res.Phases,
	}, nil
}

// DetectionRate runs the tester on g with `trials` different seeds and
// returns the fraction of runs that rejected (experiment E2).
func DetectionRate(g *graph.Graph, opts Options, trials int, baseSeed int64) (float64, error) {
	rejected := 0
	for t := 0; t < trials; t++ {
		r, err := RunTester(g, opts, baseSeed+int64(t)*7919)
		if err != nil {
			return 0, err
		}
		if r.Rejected {
			rejected++
		}
	}
	return float64(rejected) / float64(trials), nil
}
