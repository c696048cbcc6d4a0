package congest

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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

// relayBcast is the literal hop-by-hop broadcast (the schedule an elided
// Broadcast charges): the root sends its payload to its children
// at once, and every other node forwards what it receives from its
// parent, after hop when hop is not nil, in the round it arrives. A depth
// probe is the relay whose hop adds one. Any other mail panics, at every
// wake.
type relayBcast struct {
	t        Tree
	deadline int
	hop      func(Message) Message
	got      Message
}

func (r *relayBcast) begin(api *StepAPI, t Tree, deadline int, rootMsg Message, hop func(Message) Message) bool {
	r.t, r.deadline, r.hop, r.got = t, deadline, hop, nil
	if t.IsRoot() {
		r.got = rootMsg
		for _, c := range t.ChildPorts {
			api.Send(c, rootMsg)
		}
	}
	return api.Round() >= deadline
}

func (r *relayBcast) Feed(api *StepAPI, inbox []Inbound) bool {
	for _, in := range inbox {
		if in.Port != r.t.ParentPort || r.got != nil {
			panic(fmt.Sprintf("congest: BroadcastDown: unexpected message on port %d (node %d)", in.Port, api.Index()))
		}
		if r.got = in.Msg; r.hop != nil {
			r.got = r.hop(r.got)
		}
		for _, c := range r.t.ChildPorts {
			api.Send(c, r.got)
		}
	}
	return api.Round() >= r.deadline
}

func (r *relayBcast) Wake() Status            { return Sleep(r.deadline) }
func (r *relayBcast) Result() (Message, bool) { return r.got, r.got != nil }

// addOne is the depth probe's hop in the relay: a node forwards one more
// than it received, which is its depth (depthInt).
func addOne(m Message) Message { return intMsg{v: m.(intMsg).v + 1} }

// runBroadcasts runs two back-to-back broadcasts (budgets 2·side+2 after
// a 3-round offset, then 2·side−1, each covering the tree's depth
// 2·side−2) on the fixture's tree, elided or relayed, and returns the
// Result with what every node received. With depth both are depth
// probes; the tree is deep enough that some relays cross a power of two,
// where the message for a depth and for the next differ in size.
func (f elideFixture) runBroadcasts(t *testing.T, relay, depth bool, cut, sw int) (*Result, [][2]int64) {
	t.Helper()
	got := make([][2]int64, f.g.N())
	budget := f.depth[f.by-1] + 4
	cfg := Config{Graph: f.g, Seed: 5, IDs: f.ids, StopOnReject: true, Workers: f.workers, Probe: elideProbe()}
	res, err := RunStep(cfg, func(v int) StepProgram {
		if v == f.by {
			return bystander(cut, sw)
		}
		tr := f.views[v]
		var rb [2]relayBcast
		op := func(k, budget int, payload int64) treeOp {
			msg := Message(intMsg{v: payload})
			if relay {
				return machineOp(&rb[k], func(api *StepAPI) bool {
					dl := api.Round() + budget
					if depth {
						return rb[k].begin(api, tr, dl, intMsg{v: 0}, addOne)
					}
					return rb[k].begin(api, tr, dl, msg, nil)
				}, func(api *StepAPI) {
					m, ok := rb[k].Result()
					if !ok {
						panic("broadcast did not complete")
					}
					got[v][k] = m.(intMsg).v
				})
			}
			return engineOp(func(api *StepAPI) Status {
				dl := api.Round() + budget
				if depth {
					return api.BroadcastDepth(tr, dl, depthInt)
				}
				return api.Broadcast(tr, dl, msg)
			}, func(api *StepAPI) { got[v][k] = api.Result().(intMsg).v })
		}
		return treeOps(idle(3), op(0, budget, 1<<20), op(1, budget-3, 7))
	})
	if err != nil {
		t.Fatalf("relay %v depth %v cut %d: %v", relay, depth, cut, err)
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
	testBroadcastsMatchRelay(t, false)
}

// TestDepthWindowMatchesRelay checks a depth probe (BroadcastDepth) against
// the relay that adds one per hop, as TestElidedBroadcastMatchesRelay
// does for a fixed payload: every node's depth, verdicts, rounds,
// messages, bits and largest message, and each phase's traffic, whole or
// cut at every round, on one and four workers.
func TestDepthWindowMatchesRelay(t *testing.T) {
	testBroadcastsMatchRelay(t, true)
}

func testBroadcastsMatchRelay(t *testing.T, depth bool) {
	for _, f := range []elideFixture{newElideFixture(5, 1), newElideFixture(12, 4)} {
		budget := f.depth[f.by-1] + 4
		end := 3 + 2*budget
		for _, sw := range []int{6, 3 + budget, end - 2} {
			for cut := -1; cut <= end; cut++ {
				want, wantGot := f.runBroadcasts(t, true, depth, cut, sw)
				res, got := f.runBroadcasts(t, false, depth, cut, sw)
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
// elided Stream charges): the root sends one packPipe
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
			return treeOps(idle(2), machineOp(&r, func(api *StepAPI) bool {
				return r.begin(api, tr, api.Round()+40, items)
			}, func(api *StepAPI) {
				if tr.IsRoot() {
					r.got = items
				}
				counts[v] = len(r.got)
			}))
		}
		return treeOps(idle(2), engineOp(func(api *StepAPI) Status {
			return api.Stream(tr, api.Round()+40, items)
		}, func(api *StepAPI) {
			counts[v] = api.Shared(func(items []Message) any { return len(items) }).(int)
		}))
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
	huge := func(relay bool) (*Result, error) {
		return RunStep(Config{Graph: f.g, Seed: 5, IDs: f.ids, BitBound: 64}, func(v int) StepProgram {
			if v == f.by {
				return bystander(-1, 0)
			}
			tr := f.views[v]
			if relay {
				var rb relayBcast
				return treeOps(idle(1), machineOp(&rb, func(api *StepAPI) bool {
					return rb.begin(api, tr, api.Round()+12, sizedMsg{bits: 65}, nil)
				}, nil))
			}
			return treeOps(idle(1), engineOp(func(api *StepAPI) Status {
				return api.Broadcast(tr, api.Round()+12, sizedMsg{bits: 65})
			}, func(api *StepAPI) { api.Result() }))
		})
	}
	wantRes, wantErr := huge(true)
	res, err := huge(false)
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

// streamProg is a Snapshottable program that idles to round 2 and then
// runs one stream on its tree, with streamItems(over) at the fixture's
// root, and accepts once it has read them.
type streamProg struct {
	tr    Tree
	over  int
	begun bool
}

const streamProgKind = 204

func init() {
	RegisterMessage(202, func(c *Snap, m *intMsg) { c.Varint(&m.v) })
	RegisterMessage(203, func(c *Snap, m *sizedMsg) { c.Int(&m.bits) })
}

func (p *streamProg) SnapshotKind() uint16 { return streamProgKind }

func (p *streamProg) WalkState(c *Snap) {
	c.Tree(&p.tr)
	c.Int(&p.over)
	c.Bool(&p.begun)
}

func (p *streamProg) Step(api *StepAPI, _ []Inbound) Status {
	switch {
	case api.Round() < 2:
		return Sleep(2)
	case !p.begun:
		p.begun = true
		var items []Message
		if p.tr.IsRoot() && len(p.tr.ChildPorts) > 0 {
			items = streamItems(p.over, api.BitBound())
		}
		return api.Stream(p.tr, api.Round()+40, items)
	}
	api.Shared(func(items []Message) any { return len(items) })
	api.Output(VerdictAccept)
	return Done()
}

// TestStreamResumes checkpoints a stream at every barrier, with and
// without an over-bound item, and resumes each checkpoint to the
// uninterrupted run's Result or error: a checkpoint carries the root's
// items and its pending literal send. The bystander streams as the
// childless root of its own tree. The 12x12 grid runs on four workers,
// so the root registers its literal send while other workers step
// (run it under -race).
func TestStreamResumes(t *testing.T) {
	for _, f := range []elideFixture{newElideFixture(5, 1), newElideFixture(12, 4)} {
		f.testStreamResumes(t)
	}
}

func (f elideFixture) testStreamResumes(t *testing.T) {
	restore := func(_ int, kind uint16, c *Snap) (StepProgram, error) {
		if kind != streamProgKind {
			return nil, fmt.Errorf("unexpected kind %d", kind)
		}
		p := &streamProg{}
		p.WalkState(c)
		return p, c.Err()
	}
	for _, over := range []int{-1, 9, 22} {
		var snaps [][]byte
		cfg := Config{Graph: f.g, Seed: 5, IDs: f.ids, BitBound: 120, Workers: f.workers}
		run := cfg
		run.Checkpoint = CheckpointConfig{EveryBarriers: 1, Sink: func(_ int, data []byte) error {
			snaps = append(snaps, data)
			return nil
		}}
		want, wantErr := RunStep(run, func(v int) StepProgram { return &streamProg{tr: f.views[v], over: over} })
		if (wantErr != nil) != (over >= 0) {
			t.Fatalf("n=%d item %d: err = %v", f.g.N(), over, wantErr)
		}
		if len(snaps) < 2 {
			t.Fatalf("n=%d item %d: %d checkpoints", f.g.N(), over, len(snaps))
		}
		for b, snap := range snaps {
			got, err := ResumeStep(cfg, snap, restore)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got.Metrics, want.Metrics) ||
				!reflect.DeepEqual(got.Verdicts, want.Verdicts) {
				t.Fatalf("n=%d item %d, resumed at barrier %d: %+v %v, want %+v %v", f.g.N(), over, b+1, got.Metrics, err, want.Metrics, wantErr)
			}
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
		return treeOps(engineOp(func(api *StepAPI) Status {
			return api.Broadcast(tr, api.Round()+12, intMsg{v: 3})
		}, func(api *StepAPI) { api.Result() }))
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

// drawFold is mixFold that also draws from rng when the fold has an odd
// value, as the trial pick draws only when the fold has a candidate.
func drawFold(rng *rand.Rand, own Message, ch []Message) Message {
	x := mixFold(own, ch).(intMsg).v
	if x%2 == 1 {
		x = (x + rng.Int63n(1<<20)) % 1_000_003
	}
	return intMsg{v: x}
}

var (
	mixCombine  = RegisterCombiner(3, func(_ int64, own Message, ch []Message) Message { return mixFold(own, ch) })
	drawCombine = RegisterRandomCombiner(6, func(rng *rand.Rand, _ int64, own Message, ch []Message) Message {
		return drawFold(rng, own, ch)
	})
	sizeCombine = RegisterCombiner(4, func(_ int64, own Message, ch []Message) Message { return sizeFold(own, ch) })
	// boomCombine panics where two or more children report.
	boomCombine = RegisterCombiner(5, func(_ int64, own Message, ch []Message) Message {
		if len(ch) >= 2 {
			panic("boom")
		}
		return mixFold(own, ch)
	})
)

// cvgResult is what a node's convergecast returned, and the node's next
// draw from its randomness after it.
type cvgResult struct {
	agg  Message
	next int64
}

// relayCvg is the literal convergecast relay (the schedule a
// by-reference Convergecast charges): a leaf sends its contribution
// to its parent at once; any other node folds its contribution with its
// children's aggregates, in ChildPorts order, in the round the last one
// arrives, and sends the result up. A fold may draw from the node's
// randomness, as a random combiner does. Mail from anything but a child
// that has not reported yet panics, at every wake.
type relayCvg struct {
	t        Tree
	deadline int
	own      Message
	fold     func(api *StepAPI, own Message, ch []Message) Message
	ch       []Message
	missing  int
	agg      Message
}

func (r *relayCvg) begin(api *StepAPI, t Tree, deadline int, own Message, fold func(api *StepAPI, own Message, ch []Message) Message) bool {
	r.t, r.deadline, r.own, r.fold, r.agg = t, deadline, own, fold, nil
	r.ch, r.missing = make([]Message, len(t.ChildPorts)), len(t.ChildPorts)
	if r.missing == 0 {
		r.finish(api)
	}
	return api.Round() >= deadline
}

func (r *relayCvg) finish(api *StepAPI) {
	r.agg = r.fold(api, r.own, r.ch)
	if !r.t.IsRoot() {
		api.Send(r.t.ParentPort, r.agg)
	}
}

func (r *relayCvg) Feed(api *StepAPI, inbox []Inbound) bool {
	for _, in := range inbox {
		k := slices.Index(r.t.ChildPorts, in.Port)
		if k < 0 || r.ch[k] != nil {
			panic(fmt.Sprintf("congest: Convergecast: unexpected message on port %d (node %d)", in.Port, api.Index()))
		}
		r.ch[k] = in.Msg
		if r.missing--; r.missing == 0 {
			r.finish(api)
		}
	}
	return api.Round() >= r.deadline
}

func (r *relayCvg) Wake() Status { return Sleep(r.deadline) }

// cvgRun configures runConvergecasts: the relay or by reference, the
// relay's fold (random folds draw from the node's randomness) and the
// registered combiner, each node's contribution, the two budgets, the
// bystander's cut and phase switch, and whether the odd nodes begin the
// second op a round early (Convergecast's start), as a node that skips a cross
// round does.
type cvgRun struct {
	relay   bool
	fold    func(own Message, ch []Message) Message
	draw    func(rng *rand.Rand, own Message, ch []Message) Message
	comb    Combiner
	own     func(api *StepAPI, v, op int) Message
	budgets [2]int
	cut, sw int
	early   bool
	bound   int
}

// relayFold is the relay's fold of c.
func (c cvgRun) relayFold(api *StepAPI, own Message, ch []Message) Message {
	if c.draw != nil {
		return c.draw(api.Rand(), own, ch)
	}
	return c.fold(own, ch)
}

// runConvergecasts runs two convergecasts on the fixture's tree after a
// 3-round offset, the second starting one round after the first's
// deadline, and has every node draw from its randomness after each. A
// node whose op does not complete fails with the engine's under-budget
// error, in the relay too.
func (f elideFixture) runConvergecasts(c cvgRun) (*Result, [][2]cvgResult, error) {
	got := make([][2]cvgResult, f.g.N())
	cfg := Config{Graph: f.g, Seed: 5, IDs: f.ids, StopOnReject: true, Workers: f.workers, Probe: elideProbe(), BitBound: c.bound}
	res, err := RunStep(cfg, func(v int) StepProgram {
		if v == f.by {
			return bystander(c.cut, c.sw)
		}
		tr := f.views[v]
		var rc relayCvg
		op, inOp, next := 0, false, 3
		return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
			for op < 2 {
				switch {
				case inOp && c.relay && !rc.Feed(api, inbox):
					return rc.Wake()
				case inOp:
					inOp = false
					var agg Message
					if !c.relay {
						agg = api.Result()
					} else if agg = rc.agg; agg == nil {
						// The relay's incomplete op ends as the engine's does.
						panic(fmt.Sprintf("congest: Convergecast: under budget (node %d)", api.Index()))
					}
					got[v][op] = cvgResult{agg, api.Rand().Int63()}
					op, next = op+1, api.Round()+1
				case api.Round() < next && !(c.early && v%2 == 1 && api.Round() == next-1):
					return Sleep(next)
				case c.relay:
					if inOp = !rc.begin(api, tr, next+c.budgets[op], c.own(api, v, op), c.relayFold); !inOp {
						panic("convergecast with rounds completed at its start")
					}
					return rc.Wake()
				default:
					inOp = true
					return api.Convergecast(tr, next, next+c.budgets[op], c.own(api, v, op), c.comb)
				}
			}
			return Done()
		})
	})
	return res, got, err
}

// testCvgMatchesRelay checks that a by-reference convergecast is
// indistinguishable from the relay: the same aggregate and next draw at
// every node, verdicts, rounds, messages, bits and largest message, and
// the same traffic in each phase when the phase switches inside, at the
// end of, or after a window, whole or cut by StopOnReject at every round
// of both windows, and whether or not half the nodes begin the second
// window a round early. The second window's budget is the tree's height,
// so the root's subtree completes in its last round. The 12x12 grid runs
// on four workers, so parallel workers claim and fold subtrees
// concurrently (run it under -race).
func testCvgMatchesRelay(t *testing.T, c cvgRun) {
	for _, f := range []elideFixture{newElideFixture(5, 1), newElideFixture(12, 4)} {
		h := f.depth[f.by-1]
		c.budgets = [2]int{h + 2, h}
		end := 3 + c.budgets[0] + 1 + c.budgets[1]
		for _, c.sw = range []int{6, 3 + c.budgets[0], end - 1} {
			for c.cut = -1; c.cut <= end+1; c.cut++ {
				c.relay, c.early = true, false
				want, wantGot, err := f.runConvergecasts(c)
				if err != nil {
					t.Fatal(err)
				}
				c.relay = false
				for _, c.early = range []bool{false, true} {
					res, got, err := f.runConvergecasts(c)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(res.Metrics, want.Metrics) || !reflect.DeepEqual(res.Verdicts, want.Verdicts) ||
						!reflect.DeepEqual(phaseTraffic(res), phaseTraffic(want)) || !reflect.DeepEqual(got, wantGot) {
						t.Fatalf("n=%d switch %d cut %d early %v:\nby reference %+v %v\nrelay        %+v %v", f.g.N(), c.sw, c.cut, c.early,
							res.Metrics, phaseTraffic(res), want.Metrics, phaseTraffic(want))
					}
				}
			}
		}
	}
}

// TestByRefConvergecastMatchesLiteral checks a deterministic combiner
// against the relay (testCvgMatchesRelay).
func TestByRefConvergecastMatchesLiteral(t *testing.T) {
	testCvgMatchesRelay(t, cvgRun{fold: mixFold, comb: mixCombine,
		own: func(_ *StepAPI, v, op int) Message { return intMsg{v: int64(v*(op+3)) % 97} }})
}

// TestRandomConvergecastMatchesRelay checks a combiner that draws from
// the folded node's randomness against the relay, whose fold draws at
// the node that folds (testCvgMatchesRelay). Every node also draws its
// contribution before the op begins, as the trial pick does, so a fold
// drawn from another node's stream, or out of order, changes the
// aggregates and the draws after the op.
func TestRandomConvergecastMatchesRelay(t *testing.T) {
	testCvgMatchesRelay(t, cvgRun{draw: drawFold, comb: drawCombine,
		own: func(api *StepAPI, v, op int) Message { return intMsg{v: int64(v+op) + api.Rand().Int63n(97)} }})
}

// TestByRefConvergecastErrors checks that a by-reference convergecast
// fails as the relay does, with the same error text: an aggregate above
// the bit bound (at a leaf's first round and deeper in the tree), a
// budget below the tree's height, and a message reaching a node inside
// the window; and that a convergecast, a broadcast or a stream with no
// rounds panics.
func TestByRefConvergecastErrors(t *testing.T) {
	f := newElideFixture(5, 1)
	h := f.depth[f.by-1]
	parity := func(name string, c cvgRun) {
		t.Helper()
		c.relay = true
		_, _, want := f.runConvergecasts(c)
		c.relay = false
		_, _, err := f.runConvergecasts(c)
		if want == nil || err == nil || err.Error() != want.Error() {
			t.Fatalf("%s: by reference %v, relay %v", name, err, want)
		}
	}
	sized := cvgRun{fold: sizeFold, comb: sizeCombine, budgets: [2]int{h + 2, h}, cut: -1, sw: 0,
		own: func(*StepAPI, int, int) Message { return sizedMsg{bits: 11} }}
	for _, bound := range []int{10, 16, 25} {
		sized.bound = bound
		parity(fmt.Sprintf("bound %d", bound), sized)
	}
	mix := cvgRun{fold: mixFold, comb: mixCombine, budgets: [2]int{h - 2, h}, cut: -1, sw: 0,
		own: func(_ *StepAPI, v, _ int) Message { return intMsg{v: int64(v)} }}
	parity("under budget", mix)

	// A combiner that panics fails the run, on four workers too, without
	// leaving a claimed record that another resolver waits for forever.
	for _, pf := range []elideFixture{f, newElideFixture(12, 4)} {
		boom := cvgRun{fold: mixFold, comb: boomCombine, cut: -1,
			own: func(_ *StepAPI, v, _ int) Message { return intMsg{v: int64(v)} }}
		boom.budgets = [2]int{pf.depth[pf.by-1] + 2, pf.depth[pf.by-1]}
		if _, _, err := pf.runConvergecasts(boom); err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("n=%d: panicking combiner: err = %v", pf.g.N(), err)
		}
	}

	// A star's center waits for its one tree child, which delays, while
	// another leaf sends it a message.
	var want error
	for _, relay := range []bool{true, false} {
		_, err := RunStep(Config{Graph: graph.Star(4), Seed: 2}, func(i int) StepProgram {
			var rc relayCvg
			op := func(tr Tree, budget int) treeOp {
				if relay {
					return machineOp(&rc, func(api *StepAPI) bool {
						return rc.begin(api, tr, api.Round()+budget, intMsg{v: 1}, func(_ *StepAPI, own Message, ch []Message) Message {
							return mixFold(own, ch)
						})
					}, nil)
				}
				return engineOp(func(api *StepAPI) Status {
					return api.Convergecast(tr, api.Round(), api.Round()+budget, intMsg{v: 1}, mixCombine)
				}, func(api *StepAPI) { api.Result() })
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
			t.Fatalf("relay %v: err = %v", relay, err)
		}
		if want == nil {
			want = err
		} else if err.Error() != want.Error() {
			t.Fatalf("stray message: by reference %v, relay %v", err, want)
		}
	}

	// Every op needs at least one round.
	for _, op := range []struct {
		name string
		call func(api *StepAPI, tr Tree) Status
	}{
		{"Convergecast", func(api *StepAPI, tr Tree) Status {
			return api.Convergecast(tr, api.Round(), api.Round(), intMsg{v: 1}, mixCombine)
		}},
		{"BroadcastDown", func(api *StepAPI, tr Tree) Status {
			return api.Broadcast(tr, api.Round(), intMsg{v: 1})
		}},
		{"BroadcastItemsDown", func(api *StepAPI, tr Tree) Status {
			return api.Stream(tr, api.Round(), []Message{intMsg{v: 1}})
		}},
	} {
		_, err := RunStep(Config{Graph: graph.Path(2), Seed: 2}, func(i int) StepProgram {
			tr := pathTree(i, 2)
			return treeOps(engineOp(func(api *StepAPI) Status { return op.call(api, tr) }, nil))
		})
		if err == nil || !strings.Contains(err.Error(), op.name+": no rounds (node 0)") {
			t.Fatalf("%s with no rounds: err = %v", op.name, err)
		}
	}
}
