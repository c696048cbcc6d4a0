package testers

import (
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
)

// PartPredicate decides a hereditary graph property on one part. It runs
// at the part root over the gathered part graph (central evaluation,
// charged as modeled rounds — the paper's §4.2 remark covers any
// hereditary property verifiable in rounds polynomial in the part
// diameter; gathering the poly(1/eps)-diameter part is one such way).
type PartPredicate func(g *graph.Graph) bool

// RunHereditary runs the generic tester behind the §4.2 remark on g over
// the simulator: for any hereditary property P (closed under induced
// subgraphs, so parts of a P-graph keep P) that can be decided per part,
// it partitions the graph and evaluates P on each part:
//
//   - if G has P, every part has P (hereditary) — every node accepts;
//   - if G is eps-far from P and minor-free, the partition removes at
//     most eps*m edges, so some part violates P — its root rejects.
//
// Panics on invalid Options (Epsilon outside (0,1]), like core.RunTester.
func RunHereditary(g *graph.Graph, pred PartPredicate, opts Options, seed int64) (*core.RunResult, error) {
	plan := stageIPlanFor(g, opts)
	res, err := congest.RunStep(testersConfig(g, opts, seed), func(node int) congest.StepProgram {
		return newHereditaryProgram(plan, pred)
	})
	return newRunResult(res, err)
}
