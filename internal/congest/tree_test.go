package congest

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
)

// randomTreeViews builds consistent Tree views for a random spanning tree
// of g rooted at 0 (for failure-injection and property tests).
func randomTreeViews(g *graph.Graph) []Tree {
	res := g.BFS(0)
	views := make([]Tree, g.N())
	for v := 0; v < g.N(); v++ {
		views[v].ParentPort = -1
	}
	portOf := func(v, w int) int {
		for i, x := range g.Neighbors(v) {
			if int(x) == w {
				return i
			}
		}
		panic("not adjacent")
	}
	for v := 0; v < g.N(); v++ {
		if p := res.Parent[v]; p >= 0 {
			views[v].ParentPort = portOf(v, p)
			views[p].ChildPorts = append(views[p].ChildPorts, portOf(p, v))
		}
	}
	return views
}

// machine is a Begin/Feed/Wake state machine: the gather, an idle wait
// or a test-side relay.
type machine interface {
	Feed(api *StepAPI, inbox []Inbound) bool
	Wake() Status
}

// treeOp is one operation of a test program: an engine op, whose call
// begins it and which ends at the node's next wake (its deadline), or a
// machine op, whose begin starts m and reports whether it already
// completed. done, when non-nil, consumes the result at the end.
type treeOp struct {
	call  func(api *StepAPI) Status
	m     machine
	begin func(api *StepAPI) bool
	done  func(api *StepAPI)
}

// engineOp is the treeOp of an engine call.
func engineOp(call func(api *StepAPI) Status, done func(api *StepAPI)) treeOp {
	return treeOp{call: call, done: done}
}

// machineOp is the treeOp of a state machine.
func machineOp(m machine, begin func(api *StepAPI) bool, done func(api *StepAPI)) treeOp {
	return treeOp{m: m, begin: begin, done: done}
}

// treeOps runs ops back to back, each beginning in the round the previous
// one completed, and terminates the node in the round the last completes.
func treeOps(ops ...treeOp) StepProgram {
	k, started := 0, false
	return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
		for ; k < len(ops); k++ {
			op := ops[k]
			switch {
			case !started && op.m == nil:
				started = true
				return op.call(api)
			case !started:
				started = true
				if !op.begin(api) {
					return op.m.Wake()
				}
			case op.m != nil && !op.m.Feed(api, inbox):
				return op.m.Wake()
			}
			if op.done != nil {
				op.done(api)
			}
			started = false
		}
		return Done()
	})
}

// idleOp sleeps until a round, discarding any messages.
type idleOp struct{ until int }

func (o *idleOp) Feed(api *StepAPI, _ []Inbound) bool { return api.Round() >= o.until }
func (o *idleOp) Wake() Status                        { return Sleep(o.until) }

// idle is a treeOp that idles for n rounds.
func idle(n int) treeOp {
	o := &idleOp{}
	return machineOp(o, func(api *StepAPI) bool {
		o.until = api.Round() + n
		return n <= 0
	}, nil)
}

// TestTreeOpsOnRandomTrees: broadcast and convergecast work on arbitrary
// spanning-tree shapes, not just paths and stars.
func TestTreeOpsOnRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomTree(5+rng.Intn(40), rng)
		views := randomTreeViews(g)
		depth := g.BFS(0).Dist
		maxd := 0
		for _, d := range depth {
			if d > maxd {
				maxd = d
			}
		}
		var rootSum int64
		_, err := RunStep(Config{Graph: g, Seed: int64(trial)}, func(i int) StepProgram {
			tr := views[i]
			var agg Message
			return treeOps(engineOp(func(api *StepAPI) Status {
				return api.Convergecast(tr, api.Round(), api.Round()+maxd+2, intMsg{v: 1}, sumCombine)
			}, func(api *StepAPI) {
				if agg = api.Result(); tr.IsRoot() {
					rootSum = agg.(intMsg).v
				}
			}), engineOp(func(api *StepAPI) Status {
				// Follow with a broadcast to confirm alternating ops align.
				return api.Broadcast(tr, api.Round()+maxd+2, agg)
			}, func(api *StepAPI) {
				if got := api.Result(); got.(intMsg).v != int64(g.N()) {
					panic("broadcast mismatch")
				}
			}))
		})
		if err != nil {
			t.Fatal(err)
		}
		if rootSum != int64(g.N()) {
			t.Fatalf("trial %d: sum %d, want %d", trial, rootSum, g.N())
		}
	}
}

// keepOwn aggregates to the node's own contribution.
var keepOwn = RegisterCombiner(2, func(_ int64, own Message, _ []Message) Message { return own })

// TestTreeOpsRejectStrayTraffic: the strict tree primitives must flag
// messages arriving outside the declared tree structure while a node is
// actively waiting — the mechanism that catches schedule bugs in the
// Stage I/II lockstep design.
func TestTreeOpsRejectStrayTraffic(t *testing.T) {
	// Star with center 0 and leaves 1..3; the tree is only 0-1 (port 0
	// at the center). Leaf 2 injects a message while the center waits
	// for its real child, which delays.
	g := graph.Star(4)
	_, err := RunStep(Config{Graph: g, Seed: 2}, func(i int) StepProgram {
		cvg := func(tr Tree, budget int) treeOp {
			return engineOp(func(api *StepAPI) Status {
				return api.Convergecast(tr, api.Round(), api.Round()+budget, intMsg{v: 1}, keepOwn)
			}, func(api *StepAPI) { api.Result() })
		}
		switch i {
		case 0:
			return treeOps(cvg(Tree{ParentPort: -1, ChildPorts: []int{0}}, 6))
		case 1:
			return treeOps(idle(3), // delay so the center is still waiting
				cvg(Tree{ParentPort: 0}, 3))
		case 2:
			return rounds(1, func(api *StepAPI, _ int, _ []Inbound) {
				api.Send(0, intMsg{v: 99}) // stray injection into the op
			})
		default:
			return treeOps(idle(8))
		}
	})
	if err == nil || !strings.Contains(err.Error(), "unexpected message") {
		t.Fatalf("want strict-port violation, got %v", err)
	}
}

// TestPipelineUpManyItemsPerNode stresses queue growth and the
// items+depth pipelining bound on a deeper tree.
func TestPipelineUpManyItemsPerNode(t *testing.T) {
	const n = 12
	const perNode = 9
	g := graph.Path(n)
	var got int
	_, err := RunStep(Config{Graph: g, Seed: 3}, func(i int) StepProgram {
		tr := pathTree(i, n)
		var pu PipelineUpStep
		return treeOps(machineOp(&pu, func(api *StepAPI) bool {
			var items []Message
			for k := 0; k < perNode; k++ {
				items = append(items, intMsg{v: int64(i*100 + k)})
			}
			return pu.Begin(api, tr, api.Round()+n*perNode+n+4, items)
		}, func(api *StepAPI) {
			out, ok := pu.Result()
			if !ok {
				panic("pipeline incomplete")
			}
			if tr.IsRoot() {
				got = len(out)
			}
		}))
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != n*perNode {
		t.Fatalf("root collected %d items, want %d", got, n*perNode)
	}
}

// Depth messages of the tests (kinds 1..31 are reserved for them).
var (
	depthInt     = RegisterDepthMessage(1, func(d int64) Message { return intMsg{v: d} })
	depthPlusOne = RegisterDepthMessage(2, func(d int64) Message { return intMsg{v: d + 1} })
)

// TestBroadcastDownDepthChain verifies a depth probe on a deep path:
// every node holds its own depth.
func TestBroadcastDownDepthChain(t *testing.T) {
	const n = 30
	g := graph.Path(n)
	depths := make([]int64, n)
	_, err := RunStep(Config{Graph: g, Seed: 4}, func(i int) StepProgram {
		tr := pathTree(i, n)
		return treeOps(engineOp(func(api *StepAPI) Status {
			return api.BroadcastDepth(tr, api.Round()+n+2, depthInt)
		}, func(api *StepAPI) {
			depths[i] = api.Result().(intMsg).v
		}))
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range depths {
		if d != int64(i) {
			t.Fatalf("node %d depth %d", i, d)
		}
	}
}

// TestConvergecastInsufficientBudget: an op whose budget is below the
// tree's height ends the run with the engine's under-budget error at the
// deadline, rather than hanging or handing out a partial aggregate.
func TestConvergecastInsufficientBudget(t *testing.T) {
	const n = 10
	g := graph.Path(n)
	res, err := RunStep(Config{Graph: g, Seed: 5}, func(i int) StepProgram {
		tr := pathTree(i, n)
		return treeOps(engineOp(func(api *StepAPI) Status {
			// Budget 3 < depth 9: the root cannot hear everyone.
			return api.Convergecast(tr, api.Round(), api.Round()+3, intMsg{v: 1}, sumCombine)
		}, func(api *StepAPI) { api.Result() }), idle(n))
	})
	if err == nil || !strings.Contains(err.Error(), "panicked at round 3: congest: Convergecast: under budget (node 0)") {
		t.Fatalf("err = %v, want the root's under-budget error at the deadline", err)
	}
	if res.Metrics.Rounds != 3 {
		t.Fatalf("run ended at round %d, want 3", res.Metrics.Rounds)
	}
}
