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

// treeOp is one operation of a test program built from the tree state
// machines: begin starts op (reporting whether it already completed) and
// done, when non-nil, consumes its result.
type treeOp struct {
	op interface {
		Feed(api *StepAPI, inbox []Inbound) bool
		Wake() Status
	}
	begin func(api *StepAPI) bool
	done  func(api *StepAPI)
}

// treeOps runs ops back to back, each beginning in the round the previous
// one completed, and terminates the node in the round the last completes.
func treeOps(ops ...treeOp) StepProgram {
	k, started := 0, false
	return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
		for ; k < len(ops); k++ {
			op := ops[k]
			complete := false
			if started {
				complete = op.op.Feed(api, inbox)
			} else {
				started = true
				complete = op.begin(api)
			}
			if !complete {
				return op.op.Wake()
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
	return treeOp{op: o, begin: func(api *StepAPI) bool {
		o.until = api.Round() + n
		return n <= 0
	}}
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
			var cv ConvergecastStep
			var bd BroadcastDownStep
			return treeOps(treeOp{&cv, func(api *StepAPI) bool {
				return cv.Begin(api, tr, api.Round()+maxd+2, intMsg{v: 1}, sumCombine)
			}, func(api *StepAPI) {
				agg, ok := cv.Result()
				if !ok {
					panic("convergecast failed")
				}
				if tr.IsRoot() {
					rootSum = agg.(intMsg).v
				}
			}}, treeOp{&bd, func(api *StepAPI) bool {
				// Follow with a broadcast to confirm alternating ops align.
				var m Message
				if tr.IsRoot() {
					m, _ = cv.Result()
				}
				return bd.Begin(api, tr, api.Round()+maxd+2, m)
			}, func(api *StepAPI) {
				got, ok := bd.Result()
				if !ok || got.(intMsg).v != int64(g.N()) {
					panic("broadcast mismatch")
				}
			}})
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
		var cv ConvergecastStep
		switch i {
		case 0:
			tr := Tree{ParentPort: -1, ChildPorts: []int{0}}
			return treeOps(treeOp{op: &cv, begin: func(api *StepAPI) bool {
				return cv.Begin(api, tr, api.Round()+6, intMsg{v: 1}, keepOwn)
			}})
		case 1:
			tr := Tree{ParentPort: 0}
			return treeOps(idle(3), // delay so the center is still waiting
				treeOp{op: &cv, begin: func(api *StepAPI) bool {
					return cv.Begin(api, tr, api.Round()+3, intMsg{v: 1}, keepOwn)
				}})
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
		return treeOps(treeOp{&pu, func(api *StepAPI) bool {
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
		}})
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
		var bd BroadcastDownStep
		return treeOps(treeOp{&bd, func(api *StepAPI) bool {
			return bd.BeginDepth(api, tr, api.Round()+n+2, depthInt)
		}, func(api *StepAPI) {
			got, ok := bd.Result()
			if !ok {
				panic("broadcast incomplete")
			}
			depths[i] = got.(intMsg).v
		}})
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

// TestConvergecastInsufficientBudget: ops report ok=false (rather than
// hanging or panicking) when the deadline cannot be met.
func TestConvergecastInsufficientBudget(t *testing.T) {
	const n = 10
	g := graph.Path(n)
	okAtRoot := true
	_, err := RunStep(Config{Graph: g, Seed: 5}, func(i int) StepProgram {
		tr := pathTree(i, n)
		var cv ConvergecastStep
		return treeOps(treeOp{&cv, func(api *StepAPI) bool {
			// Budget 3 < depth 9: the root cannot hear everyone.
			return cv.Begin(api, tr, api.Round()+3, intMsg{v: 1}, sumCombine)
		}, func(api *StepAPI) {
			if tr.IsRoot() {
				_, okAtRoot = cv.Result()
			}
		}},
			// Quiesce: messages still in flight at the deadline would
			// poison the next op, so drain one slack round per remaining
			// hop.
			idle(n))
	})
	if err != nil {
		t.Fatal(err)
	}
	if okAtRoot {
		t.Fatal("root must report failure under an impossible budget")
	}
}
