package congest

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

// Merge-phase semantics, checked against hand-computed values rather
// than only across worker counts: the drop rule for a receiver that
// finishes in the round it is sent to, and the first-error rule for
// routing errors. Each case runs at Workers 1, 2 and 4 on a barrier
// light enough to merge as one shard and on one with at least 1024
// queued messages per worker, which merges by receiver shard.

// hubCycle is a cycle 0..n-1 plus a hub, node n/2, adjacent to every
// other node: the hub has senders on both sides of its due position.
func hubCycle(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	h := n / 2
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
		if i != h {
			b.AddEdge(i, h)
		}
	}
	return b.Build()
}

// panicBitsMsg is a message whose size report panics while it is routed.
type panicBitsMsg struct{}

func (panicBitsMsg) Bits() int { panic("bits boom") }

func mergeCases() []struct {
	name  string
	n     int
	heavy bool
} {
	return []struct {
		name  string
		n     int
		heavy bool
	}{
		{"one-shard", 100, false}, // 394 messages in the sending round
		{"sharded", 1200, true},   // 4794 messages: ≥ 1024 per worker at 4
	}
}

func runMerge(t *testing.T, g *graph.Graph, workers int, step func(api *StepAPI) Status) (*Result, map[string]int, error) {
	t.Helper()
	ids := make([]int64, g.N())
	for i := range ids {
		ids[i] = int64(i + 1)
	}
	mc := &mergeCounter{kinds: map[string]int{}}
	res, err := RunStep(Config{Graph: g, IDs: ids, BitBound: 64, Workers: workers, Trace: mc},
		func(int) StepProgram {
			return StepFunc(func(api *StepAPI, _ []Inbound) Status { return step(api) })
		})
	return res, mc.kinds, err
}

// checkMergeKind asserts that the sending barrier merged as intended:
// by shard when heavy, on the engine loop otherwise. Single-worker runs
// emit no merge events.
func checkMergeKind(t *testing.T, label string, workers int, heavy bool, kinds map[string]int) {
	t.Helper()
	if workers == 1 {
		return
	}
	if sharded := kinds["sharded"] > 0; sharded != heavy || kinds["sequential"] == 0 {
		t.Fatalf("%s: merges %v, want sharded=%v", label, kinds, heavy)
	}
}

func TestMergeDropAndRoutingErrors(t *testing.T) {
	for _, c := range mergeCases() {
		g := hubCycle(c.n)
		m, h := int64(g.M()), c.n/2
		above := int64(c.n - 1 - h) // the hub's neighbours after it in due order
		for _, w := range []int{1, 2, 4} {
			label := fmt.Sprintf("%s/w%d", c.name, w)

			// Every node sends on every edge in round 1 and finishes. A
			// node is retired at its own due position, so of each edge's
			// two messages the one from the lower index is delivered and
			// the one from the higher index is dropped.
			res, kinds, err := runMerge(t, g, w, func(api *StepAPI) Status {
				if api.Round() == 0 {
					return Running()
				}
				api.SendAll(intMsg{int64(api.Index())})
				return Done()
			})
			if err != nil {
				t.Fatalf("%s all-done: %v", label, err)
			}
			if res.Metrics.Messages != m || res.Metrics.DroppedToDone != m {
				t.Fatalf("%s all-done: messages %d, dropped %d; want %d and %d",
					label, res.Metrics.Messages, res.Metrics.DroppedToDone, m, m)
			}
			checkMergeKind(t, label+" all-done", w, c.heavy, kinds)

			// Only the hub finishes in round 1: the hub gets the messages
			// of its neighbours before it and drops those of the ones
			// after it; every other message is delivered.
			res, kinds, err = runMerge(t, g, w, func(api *StepAPI) Status {
				switch {
				case api.Round() == 0:
					return Running()
				case api.Round() == 1:
					api.SendAll(intMsg{int64(api.Index())})
					if api.Index() == h {
						return Done()
					}
					return Running()
				default:
					return Done()
				}
			})
			if err != nil {
				t.Fatalf("%s hub-done: %v", label, err)
			}
			if res.Metrics.Messages != 2*m-above || res.Metrics.DroppedToDone != above {
				t.Fatalf("%s hub-done: messages %d, dropped %d; want %d and %d",
					label, res.Metrics.Messages, res.Metrics.DroppedToDone, 2*m-above, above)
			}
			checkMergeKind(t, label+" hub-done", w, c.heavy, kinds)

			// Node 0 and node n/8 both send a bad message in round 1.
			// Node 0's goes to node n-1, in the last shard, and node n/8's
			// to node n/8+1, in the first, so the first shard meets the
			// later sender first; node 0 comes first in due order and
			// decides the error.
			late := c.n / 8
			for _, bad := range []struct {
				kind string
				msg  Message
				want string
			}{
				{"bound", sizedMsg{65}, "congest: node 0 sent 65-bit message, bound is 64"},
				{"panic", panicBitsMsg{}, "congest: node 0 (id 1) panicked at round 1: bits boom"},
			} {
				_, _, err := runMerge(t, g, w, func(api *StepAPI) Status {
					if api.Round() == 0 {
						return Running()
					}
					i := api.Index()
					for p, to := range g.Neighbors(i) {
						if (i == 0 && int(to) == c.n-1) || (i == late && int(to) == late+1) {
							api.Send(p, bad.msg)
						} else {
							api.Send(p, intMsg{int64(i)})
						}
					}
					return Done()
				})
				if err == nil || err.Error() != bad.want {
					t.Fatalf("%s %s: error %v, want %q", label, bad.kind, err, bad.want)
				}
			}
		}
	}
}
