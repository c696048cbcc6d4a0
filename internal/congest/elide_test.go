package congest

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
)

// elideFixture is a side x side grid with its BFS tree from node 0 plus
// one bystander node (the last, attached to the grid's last node)
// outside the tree. The bystander switches the run's phase at a chosen
// round and rejects at another, so StopOnReject cuts the run there.
type elideFixture struct {
	g       *graph.Graph
	views   []Tree
	depth   []int
	ids     []int64
	by      int // the bystander
	workers int
}

func newElideFixture(side, workers int) elideFixture {
	grid := graph.Grid(side, side)
	by := grid.N()
	b := graph.NewBuilder(by + 1)
	for _, e := range grid.Edges() {
		b.AddEdge(int(e.U), int(e.V))
	}
	b.AddEdge(by-1, by)
	g := b.Build()
	views := randomTreeViews(grid)
	views = append(views, Tree{ParentPort: -1})
	bfs := grid.BFS(0)
	f := elideFixture{g: g, views: views, ids: make([]int64, by+1), by: by, workers: workers}
	for v := 0; v < by; v++ {
		f.depth = append(f.depth, bfs.Dist[v])
	}
	for v := range f.ids {
		f.ids[v] = 100 + 3*int64(v) // not the node indices
	}
	return f
}

// bystander announces phase "late" at round sw, idles until round cut,
// rejects there, and keeps running (StopOnReject ends the run at that
// barrier); cut < 0 accepts after the announcement.
func bystander(cut, sw int) StepProgram {
	return StepFunc(func(api *StepAPI, _ []Inbound) Status {
		if api.Round() == sw {
			api.PhaseEnter(lateID)
		}
		if api.Round() < sw && (cut < 0 || sw < cut) {
			return Sleep(sw)
		}
		if cut < 0 {
			api.Output(VerdictAccept)
			return Done()
		}
		if api.Round() < cut {
			return Sleep(cut)
		}
		api.Output(VerdictReject)
		return Running()
	})
}

// lateID is the phase the bystander announces (interned by elideProbe).
const lateID obs.PhaseID = 1

func elideProbe() *obs.Probe {
	p := obs.NewProbe()
	if p.Phase("late") != lateID {
		panic("unexpected phase id")
	}
	return p
}

// phaseTraffic is the per-phase traffic of a Result: the columns an
// elided window must attribute as the relay did (wakes and barriers
// differ by design).
func phaseTraffic(res *Result) [][2]int64 {
	var out [][2]int64
	for _, p := range res.Phases {
		out = append(out, [2]int64{p.Messages, p.Bits})
	}
	return out
}

// identity is a per-hop transform that keeps a broadcast literal.
func identity(m Message) Message { return m }

// runBroadcasts runs two back-to-back broadcasts (budgets 2·side+2 after
// a 3-round offset, then 2·side−1, each covering the tree's depth
// 2·side−2) on the fixture's tree, elided or relayed (an identity
// transform), and returns the Result with what every node received.
func (f elideFixture) runBroadcasts(t *testing.T, relay bool, cut, sw int) (*Result, [][2]int64) {
	t.Helper()
	got := make([][2]int64, f.g.N())
	budget := f.depth[f.by-1] + 4
	cfg := Config{Graph: f.g, Seed: 5, IDs: f.ids, StopOnReject: true, Workers: f.workers, Probe: elideProbe()}
	res, err := RunStep(cfg, func(v int) StepProgram {
		if v == f.by {
			return bystander(cut, sw)
		}
		tr := f.views[v]
		var bd [2]BroadcastDownStep
		op := func(k, budget int, payload int64) treeOp {
			return treeOp{&bd[k], func(api *StepAPI) bool {
				msg := Message(intMsg{v: payload})
				dl := api.Round() + budget
				if relay {
					return bd[k].Begin(api, tr, dl, msg, identity)
				}
				return bd[k].Begin(api, tr, dl, msg, nil)
			}, func(api *StepAPI) {
				m, ok := bd[k].Result()
				if !ok {
					panic("broadcast did not complete")
				}
				got[v][k] = m.(intMsg).v
			}}
		}
		return treeOps(idle(3), op(0, budget, 1<<20), op(1, budget-3, 7))
	})
	if err != nil {
		t.Fatalf("relay %v cut %d: %v", relay, cut, err)
	}
	return res, got
}

// TestElidedBroadcastMatchesRelay checks that an elided broadcast is
// indistinguishable from the relay: same received payloads, verdicts,
// rounds, messages, bits and largest message, and the same traffic in
// each phase when the phase switches inside, at the end of, or after a
// window, whole or cut by StopOnReject at every round of both windows.
// The 12x12 grid runs on four workers, so parallel workers resolve
// depths concurrently (run it under -race).
func TestElidedBroadcastMatchesRelay(t *testing.T) {
	for _, f := range []elideFixture{newElideFixture(5, 1), newElideFixture(12, 4)} {
		budget := f.depth[f.by-1] + 4
		end := 3 + 2*budget
		for _, sw := range []int{6, 3 + budget, end - 2} {
			for cut := -1; cut <= end; cut++ {
				want, wantGot := f.runBroadcasts(t, true, cut, sw)
				res, got := f.runBroadcasts(t, false, cut, sw)
				if !reflect.DeepEqual(res.Metrics, want.Metrics) || !reflect.DeepEqual(res.Verdicts, want.Verdicts) ||
					!reflect.DeepEqual(phaseTraffic(res), phaseTraffic(want)) || !reflect.DeepEqual(got, wantGot) {
					t.Fatalf("n=%d switch %d cut %d:\nelided %+v %v %v\nrelay  %+v %v %v", f.g.N(), sw, cut,
						res.Metrics, phaseTraffic(res), got, want.Metrics, phaseTraffic(want), wantGot)
				}
			}
		}
	}
}

// relayItems is the literal hop-by-hop item stream (the schedule an
// elided BroadcastItemsDownStep charges): the root sends one packPipe
// batch per round and then the end marker; every other node forwards
// what it receives in the round it arrives.
type relayItems struct {
	t        Tree
	deadline int
	items    []Message
	got      []Message
	done     bool
}

func (r *relayItems) begin(api *StepAPI, t Tree, deadline int, items []Message) bool {
	r.t, r.deadline, r.items, r.got, r.done = t, deadline, items, nil, false
	if t.IsRoot() {
		r.rootSend(api)
	}
	return api.Round() >= deadline
}

func (r *relayItems) rootSend(api *StepAPI) {
	var m Message = pipeEnd{}
	if len(r.items) > 0 {
		var n int
		m, n = packPipe(r.items, api.BitBound())
		r.items = r.items[n:]
	} else {
		r.done = true
	}
	for _, c := range r.t.ChildPorts {
		api.Send(c, m)
	}
}

func (r *relayItems) Feed(api *StepAPI, inbox []Inbound) bool {
	if r.t.IsRoot() && !r.done {
		r.rootSend(api)
	}
	for _, in := range inbox {
		if _, end := in.Msg.(pipeEnd); end {
			r.done = true
		} else {
			r.got, _ = pushPipePayloads(r.got, in.Msg)
		}
		for _, c := range r.t.ChildPorts {
			api.Send(c, in.Msg)
		}
	}
	return api.Round() >= r.deadline
}

func (r *relayItems) Wake() Status {
	if r.t.IsRoot() && !r.done {
		return Running()
	}
	return Sleep(r.deadline)
}

// streamItems is a stream of mixed sizes that packs into several
// batches under the fixture's bit bound, with an over-bound item at
// position over (none when over < 0).
func streamItems(over, bound int) []Message {
	var items []Message
	for k := 0; k < 23; k++ {
		items = append(items, intMsg{v: int64(k * k * 977)})
	}
	if over >= 0 {
		items[over] = sizedMsg{bits: bound}
	}
	return items
}

// runStreams runs a stream on the fixture's tree, elided or relayed,
// and returns the Result (or the error) and each node's item count.
func (f elideFixture) runStreams(relay bool, cut, sw, over int) (*Result, []int, error) {
	const bound = 120
	counts := make([]int, f.g.N())
	cfg := Config{Graph: f.g, Seed: 5, IDs: f.ids, StopOnReject: true, BitBound: bound, Probe: elideProbe()}
	res, err := RunStep(cfg, func(v int) StepProgram {
		if v == f.by {
			return bystander(cut, sw)
		}
		tr := f.views[v]
		var items []Message
		if tr.IsRoot() {
			items = streamItems(over, bound)
		}
		if relay {
			var r relayItems
			return treeOps(idle(2), treeOp{&r, func(api *StepAPI) bool {
				return r.begin(api, tr, api.Round()+40, items)
			}, func(api *StepAPI) {
				if tr.IsRoot() {
					r.got = items
				}
				counts[v] = len(r.got)
			}})
		}
		var b BroadcastItemsDownStep
		return treeOps(idle(2), treeOp{&b, func(api *StepAPI) bool {
			return b.Begin(api, tr, api.Round()+40, items)
		}, func(api *StepAPI) {
			got, ok := b.Result()
			if !ok {
				panic("stream did not complete")
			}
			counts[v] = len(got)
		}})
	})
	return res, counts, err
}

// TestElidedStreamMatchesRelay checks an elided item stream against the
// literal relay: same items at every node, verdicts, rounds, messages,
// bits and largest message, and the same traffic in each phase when the
// phase switches mid-stream, whole or cut by StopOnReject at every
// round.
func TestElidedStreamMatchesRelay(t *testing.T) {
	f := newElideFixture(5, 1)
	for _, sw := range []int{5, 14, 30} {
		for cut := -1; cut <= 45; cut++ {
			want, wantCounts, err := f.runStreams(true, cut, sw, -1)
			if err != nil {
				t.Fatal(err)
			}
			res, counts, err := f.runStreams(false, cut, sw, -1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Metrics, want.Metrics) || !reflect.DeepEqual(res.Verdicts, want.Verdicts) ||
				!reflect.DeepEqual(phaseTraffic(res), phaseTraffic(want)) ||
				(cut < 0 && !reflect.DeepEqual(counts, wantCounts)) {
				t.Fatalf("switch %d cut %d:\nelided %+v %v %v\nrelay  %+v %v %v", sw, cut,
					res.Metrics, phaseTraffic(res), counts, want.Metrics, phaseTraffic(want), wantCounts)
			}
		}
	}
}

// TestElidedBitBound checks that an elided window fails an over-bound
// payload exactly as the relay's send does: same error text, in the same
// round — for a broadcast payload and for a stream item that lands in a
// later batch.
func TestElidedBitBound(t *testing.T) {
	f := newElideFixture(5, 1)
	huge := func(transform func(Message) Message) (*Result, error) {
		return RunStep(Config{Graph: f.g, Seed: 5, IDs: f.ids, BitBound: 64}, func(v int) StepProgram {
			if v == f.by {
				return bystander(-1, 0)
			}
			tr := f.views[v]
			var bd BroadcastDownStep
			return treeOps(idle(1), treeOp{&bd, func(api *StepAPI) bool {
				return bd.Begin(api, tr, api.Round()+12, sizedMsg{bits: 65}, transform)
			}, nil})
		})
	}
	wantRes, wantErr := huge(identity)
	res, err := huge(nil)
	if wantErr == nil || err == nil || err.Error() != wantErr.Error() || res.Metrics.Rounds != wantRes.Metrics.Rounds {
		t.Fatalf("broadcast: elided %v (round %d), relay %v (round %d)", err, res.Metrics.Rounds, wantErr, wantRes.Metrics.Rounds)
	}
	if want := fmt.Sprintf("node 0 sent 65-bit message, bound is 64"); !strings.Contains(err.Error(), want) {
		t.Fatalf("broadcast error %q does not name the send %q", err, want)
	}
	for _, over := range []int{0, 9, 22} {
		wantRes, _, wantErr := f.runStreams(true, -1, 0, over)
		res, _, err := f.runStreams(false, -1, 0, over)
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() || res.Metrics.Rounds != wantRes.Metrics.Rounds {
			t.Fatalf("stream item %d: elided %v (round %d), relay %v (round %d)",
				over, err, res.Metrics.Rounds, wantErr, wantRes.Metrics.Rounds)
		}
		if !strings.Contains(err.Error(), "node 0 sent 121-bit message, bound is 120") {
			t.Fatalf("stream item %d: error %q does not name the send", over, err)
		}
	}
}

// TestChargedMessageMatchesSent checks that a charged message counts
// exactly as a routed one: messages, bits and MaxMessageBits, in the
// same round; and that a charge above the bit bound is refused.
func TestChargedMessageMatchesSent(t *testing.T) {
	g := graph.Path(3)
	run := func(charge bool, bits int) (*Result, error) {
		return RunStep(Config{Graph: g, Seed: 1, BitBound: 100}, func(v int) StepProgram {
			return rounds(2, func(api *StepAPI, r int, _ []Inbound) {
				if v != 1 || r != 0 {
					return
				}
				if charge {
					api.ChargeTraffic(2, int64(2*bits), bits)
				} else {
					api.Send(0, sizedMsg{bits: bits})
					api.Send(1, sizedMsg{bits: bits})
				}
			})
		})
	}
	for _, bits := range []int{1, 57, 100} {
		sent, err := run(false, bits)
		if err != nil {
			t.Fatal(err)
		}
		charged, err := run(true, bits)
		if err != nil {
			t.Fatal(err)
		}
		if sent.Metrics.MaxMessageBits != bits || !reflect.DeepEqual(sent.Metrics, charged.Metrics) {
			t.Fatalf("%d bits: charged %+v, sent %+v", bits, charged.Metrics, sent.Metrics)
		}
	}
	if _, err := run(true, 101); err == nil || !strings.Contains(err.Error(), "charged a 101-bit message, bound is 100") {
		t.Fatalf("over-bound charge: err = %v", err)
	}
}

// TestElidedWindowRejectsInbound checks that a message reaching a node
// inside an elided window fails the run, as the relay's Feed does for a
// message off the tree.
func TestElidedWindowRejectsInbound(t *testing.T) {
	f := newElideFixture(5, 1)
	_, err := RunStep(Config{Graph: f.g, Seed: 5, IDs: f.ids}, func(v int) StepProgram {
		if v == f.by {
			return rounds(3, func(api *StepAPI, r int, _ []Inbound) {
				if r == 2 {
					api.Send(0, intMsg{v: 1}) // to node 24, mid-window
				}
			})
		}
		tr := f.views[v]
		var bd BroadcastDownStep
		return treeOps(treeOp{&bd, func(api *StepAPI) bool {
			return bd.Begin(api, tr, api.Round()+12, intMsg{v: 3}, nil)
		}, nil})
	})
	if err == nil || !strings.Contains(err.Error(), "BroadcastDown: unexpected message") {
		t.Fatalf("err = %v", err)
	}
}

// mixFold folds a node's contribution with its children's aggregates as a
// polynomial hash in child order, so a fold in any other order gives
// another value.
func mixFold(own Message, ch []Message) Message {
	x := own.(intMsg).v
	for i, c := range ch {
		x = (x*131 + c.(intMsg).v*int64(i+7)) % 1_000_003
	}
	return intMsg{v: x}
}

// sizeFold aggregates the subtree's node count as a message of 10 bits
// plus that count.
func sizeFold(own Message, ch []Message) Message {
	n := own.(sizedMsg).bits
	for _, c := range ch {
		n += c.(sizedMsg).bits - 10
	}
	return sizedMsg{bits: n}
}

var (
	mixCombine  = RegisterCombiner(3, func(_ int64, own Message, ch []Message) Message { return mixFold(own, ch) })
	sizeCombine = RegisterCombiner(4, func(_ int64, own Message, ch []Message) Message { return sizeFold(own, ch) })
	// boomCombine panics where two or more children report.
	boomCombine = RegisterCombiner(5, func(_ int64, own Message, ch []Message) Message {
		if len(ch) >= 2 {
			panic("boom")
		}
		return mixFold(own, ch)
	})
)

// cvgResult is what a node's convergecast returned.
type cvgResult struct {
	agg Message
	ok  bool
}

// cvgRun configures runConvergecasts: the literal relay or by reference,
// the fold, each node's contribution, the two budgets, the bystander's
// cut and phase switch, and whether the odd nodes begin the second op a
// round early (BeginFrom), as a node that skips a cross round does.
type cvgRun struct {
	literal bool
	fold    func(own Message, ch []Message) Message
	comb    Combiner
	own     func(v, op int) Message
	budgets [2]int
	cut, sw int
	early   bool
	bound   int
}

// runConvergecasts runs two convergecasts on the fixture's tree after a
// 3-round offset, the second starting one round after the first's
// deadline. The literal run's combiner draws from the node's randomness
// first, which keeps it off the by-reference path. A node that does not
// complete an op panics, as every caller of ConvergecastStep does.
func (f elideFixture) runConvergecasts(c cvgRun) (*Result, [][2]cvgResult, error) {
	got := make([][2]cvgResult, f.g.N())
	cfg := Config{Graph: f.g, Seed: 5, IDs: f.ids, StopOnReject: true, Workers: f.workers, Probe: elideProbe(), BitBound: c.bound}
	res, err := RunStep(cfg, func(v int) StepProgram {
		if v == f.by {
			return bystander(c.cut, c.sw)
		}
		tr := f.views[v]
		var cv ConvergecastStep
		op, inOp, next := 0, false, 3
		begin := func(api *StepAPI, start int) bool {
			dl := start + c.budgets[op]
			if c.literal {
				return cv.BeginLiteral(api, tr, dl, c.own(v, op), func(own Message, ch []Message) Message {
					api.Rand().Int63()
					return c.fold(own, ch)
				})
			}
			return cv.BeginFrom(api, tr, start, dl, c.own(v, op), c.comb)
		}
		return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
			for op < 2 {
				switch {
				case inOp && !cv.Feed(api, inbox):
					return cv.Wake()
				case inOp:
					inOp = false
					agg, ok := cv.Result()
					if !ok {
						panic(fmt.Sprintf("convergecast %d did not complete", op))
					}
					got[v][op] = cvgResult{agg, ok}
					op, next = op+1, api.Round()+1
				case api.Round() < next && !(c.early && v%2 == 1 && api.Round() == next-1):
					return Sleep(next)
				default:
					if inOp = !begin(api, next); !inOp {
						panic("convergecast with rounds completed at its start")
					}
				}
			}
			return Done()
		})
	})
	return res, got, err
}

// TestByRefConvergecastMatchesLiteral checks that a by-reference
// convergecast is indistinguishable from the literal relay: the same
// aggregate at every node, verdicts, rounds, messages, bits and largest
// message, and the same traffic in each phase when the phase switches
// inside, at the end of, or after a window, whole or cut by StopOnReject
// at every round of both windows, and whether or not half the nodes
// begin the second window a round early. The second window's budget is
// the tree's height, so the root's subtree completes in its last round.
// The 12x12 grid runs on four workers, so parallel workers claim and fold
// subtrees concurrently (run it under -race).
func TestByRefConvergecastMatchesLiteral(t *testing.T) {
	for _, f := range []elideFixture{newElideFixture(5, 1), newElideFixture(12, 4)} {
		h := f.depth[f.by-1]
		c := cvgRun{fold: mixFold, comb: mixCombine, budgets: [2]int{h + 2, h},
			own: func(v, op int) Message { return intMsg{v: int64(v*(op+3)) % 97} }}
		end := 3 + c.budgets[0] + 1 + c.budgets[1]
		for _, c.sw = range []int{6, 3 + c.budgets[0], end - 1} {
			for c.cut = -1; c.cut <= end+1; c.cut++ {
				c.literal, c.early = true, false
				want, wantGot, err := f.runConvergecasts(c)
				if err != nil {
					t.Fatal(err)
				}
				c.literal = false
				for _, c.early = range []bool{false, true} {
					res, got, err := f.runConvergecasts(c)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(res.Metrics, want.Metrics) || !reflect.DeepEqual(res.Verdicts, want.Verdicts) ||
						!reflect.DeepEqual(phaseTraffic(res), phaseTraffic(want)) || !reflect.DeepEqual(got, wantGot) {
						t.Fatalf("n=%d switch %d cut %d early %v:\nby reference %+v %v\nliteral      %+v %v", f.g.N(), c.sw, c.cut, c.early,
							res.Metrics, phaseTraffic(res), want.Metrics, phaseTraffic(want))
					}
				}
			}
		}
	}
}

// TestByRefConvergecastErrors checks that a by-reference convergecast
// fails as the literal relay does, with the same error text: an
// aggregate above the bit bound (at a leaf's first round and deeper in
// the tree), a budget below the tree's height, and a message reaching a
// node inside the window.
func TestByRefConvergecastErrors(t *testing.T) {
	f := newElideFixture(5, 1)
	h := f.depth[f.by-1]
	parity := func(name string, c cvgRun) {
		t.Helper()
		c.literal = true
		_, _, want := f.runConvergecasts(c)
		c.literal = false
		_, _, err := f.runConvergecasts(c)
		if want == nil || err == nil || err.Error() != want.Error() {
			t.Fatalf("%s: by reference %v, literal %v", name, err, want)
		}
	}
	sized := cvgRun{fold: sizeFold, comb: sizeCombine, budgets: [2]int{h + 2, h}, cut: -1, sw: 0,
		own: func(int, int) Message { return sizedMsg{bits: 11} }}
	for _, bound := range []int{10, 16, 25} {
		sized.bound = bound
		parity(fmt.Sprintf("bound %d", bound), sized)
	}
	mix := cvgRun{fold: mixFold, comb: mixCombine, budgets: [2]int{h - 2, h}, cut: -1, sw: 0,
		own: func(v, _ int) Message { return intMsg{v: int64(v)} }}
	parity("under budget", mix)

	// A combiner that panics fails the run, on four workers too, without
	// leaving a claimed record that another resolver waits for forever.
	for _, pf := range []elideFixture{f, newElideFixture(12, 4)} {
		boom := cvgRun{fold: mixFold, comb: boomCombine, budgets: [2]int{h + 2, h}, cut: -1,
			own: func(v, _ int) Message { return intMsg{v: int64(v)} }}
		boom.budgets = [2]int{pf.depth[pf.by-1] + 2, pf.depth[pf.by-1]}
		if _, _, err := pf.runConvergecasts(boom); err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("n=%d: panicking combiner: err = %v", pf.g.N(), err)
		}
	}

	// A star's center waits for its one tree child, which delays, while
	// another leaf sends it a message.
	var want error
	for _, literal := range []bool{true, false} {
		_, err := RunStep(Config{Graph: graph.Star(4), Seed: 2}, func(i int) StepProgram {
			var cv ConvergecastStep
			op := func(tr Tree, budget int) treeOp {
				return treeOp{&cv, func(api *StepAPI) bool {
					if literal {
						return cv.BeginLiteral(api, tr, api.Round()+budget, intMsg{v: 1}, func(own Message, ch []Message) Message {
							api.Rand().Int63()
							return mixFold(own, ch)
						})
					}
					return cv.Begin(api, tr, api.Round()+budget, intMsg{v: 1}, mixCombine)
				}, nil}
			}
			switch i {
			case 0:
				return treeOps(op(Tree{ParentPort: -1, ChildPorts: []int{0}}, 6))
			case 1:
				return treeOps(idle(3), op(Tree{ParentPort: 0}, 3))
			case 2:
				return rounds(1, func(api *StepAPI, _ int, _ []Inbound) { api.Send(0, intMsg{v: 99}) })
			}
			return treeOps(idle(8))
		})
		if err == nil || !strings.Contains(err.Error(), "Convergecast: unexpected message on port 1 (node 0)") {
			t.Fatalf("literal %v: err = %v", literal, err)
		}
		if want == nil {
			want = err
		} else if err.Error() != want.Error() {
			t.Fatalf("stray message: by reference %v, literal %v", err, want)
		}
	}
}
