package testers

import (
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
)

// This file contains the StepProgram runners behind Run and
// RunHereditary: the Stage I plan (either variant) hands each node over
// to the part-context builder (core.PartCtxStep), whose done callback
// performs the local checks and outputs the verdict.

// newPropertyProgram builds the per-node step program of the minor-free
// property tester: after the part context is ready the checks are purely
// local, so the done callback outputs the verdict directly.
func newPropertyProgram(plan *partition.StageIPlan, prop Property) congest.StepProgram {
	return plan.NewNode(func(api *congest.StepAPI, po *partition.Outcome) congest.Status {
		return congest.BecomeStep(core.NewPartCtxStep(po, func(api *congest.StepAPI, c *core.PartCtxStep) congest.Status {
			reject := false
			switch prop {
			case CycleFreeness:
				// Any intra-part non-tree edge closes a cycle.
				reject = len(c.NonTreeAssignedPorts()) > 0
			case Bipartiteness:
				// An intra-part edge between equal level parities closes
				// an odd cycle (BFS-level argument, §4.2).
				for _, p := range c.AssignedPorts() {
					if (c.Level()+c.NeighborLevel(p))%2 == 0 {
						reject = true
						break
					}
				}
			default:
				panic("testers: unknown property")
			}
			if reject || po.Rejected {
				api.Output(congest.VerdictReject)
			} else {
				api.Output(congest.VerdictAccept)
			}
			return congest.Done()
		}))
	})
}

// newHereditaryProgram builds the per-node step program of the generic
// hereditary-property tester: the part context chains into the
// gather-and-evaluate continuation, and only the part root (or a Stage I
// rejector) rejects.
func newHereditaryProgram(plan *partition.StageIPlan, pred PartPredicate) congest.StepProgram {
	return plan.NewNode(func(api *congest.StepAPI, po *partition.Outcome) congest.Status {
		return congest.BecomeStep(core.NewPartCtxStep(po, func(api *congest.StepAPI, c *core.PartCtxStep) congest.Status {
			return congest.BecomeStep(c.NewGatherEval(pred, func(api *congest.StepAPI, reject, rootEvaluated bool) congest.Status {
				if (reject || po.Rejected) && (rootEvaluated || po.Rejected) {
					api.Output(congest.VerdictReject)
				} else {
					api.Output(congest.VerdictAccept)
				}
				return congest.Done()
			}))
		}))
	})
}

// stageIPlanFor validates the options and compiles the shared Stage I
// plan.
func stageIPlanFor(g *graph.Graph, opts Options) *partition.StageIPlan {
	if opts.Epsilon <= 0 || opts.Epsilon > 1 {
		panic("testers: Epsilon must be in (0,1]")
	}
	if opts.Partition.Epsilon == 0 {
		opts.Partition.Epsilon = opts.Epsilon
	}
	return partition.NewStageIPlan(opts.Partition, g.N())
}

func testersConfig(g *graph.Graph, opts Options, seed int64) congest.Config {
	return congest.Config{
		Graph:        g,
		Seed:         seed,
		StopOnReject: true,
		MaxRounds:    1 << 40,
		Workers:      opts.Workers,
		Cancel:       opts.Cancel,
		Deadline:     opts.Deadline,
	}
}

func newRunResult(res *congest.Result, err error) (*core.RunResult, error) {
	if err != nil {
		return nil, err
	}
	return &core.RunResult{
		Rejected:   res.Rejected(),
		RejectedBy: res.RejectCount(),
		Metrics:    res.Metrics,
	}, nil
}
