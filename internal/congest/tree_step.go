package congest

import "fmt"

// The Tree communication primitives. A broadcast, a depth probe, an item
// stream and a convergecast are each one StepAPI call, made at the op's
// start round by every node of the tree with the same deadline. The call
// opens the op in the engine and returns the Status the node yields;
// the node sleeps to the deadline and reads the result there:
//
//	return api.Broadcast(t, deadline, m)   // at the start round
//	...
//	got := api.Result()                    // at the deadline wake
//
// Every node completes exactly at the deadline, which keeps multi-part
// schedules in lockstep (the paper's emulation style, §2.1.5). The ops
// run by reference (elide.go, converge.go): no message moves, every node
// resolves its result at the deadline, and every node charges exactly
// the messages the hop-by-hop relay would have sent. The engine owns all
// of an op's state: the window records, the root's payload, the literal
// round of an over-bound stream message, the rejection of mail that
// reaches a node inside an op, and the error of an op whose budget is
// below the relay's. No op holds a function: a convergecast names a
// registered combiner and a depth probe a registered message
// constructor, so a checkpoint restores every op from its walk alone.
// Only the gather (PipelineUpStep), whose content is assembled on the
// way up, relays hop by hop, as a state machine driven from the node's
// program:
//
//	completed := sm.Begin(api, ...)   // at the operation's start round
//	for !completed {
//	    // yield sm.Wake() to the engine, then on the next wake:
//	    completed = sm.Feed(api, inbox)
//	}
//	result, ok := sm.Result()

// Op kinds (engine.opKind): the low bits name the open op, opRoot marks
// the root of its tree and opWindow a broadcast or stream that opened an
// elided window (every node but a childless root, or one that sent its
// payload literally).
const (
	opBcast    uint8 = 1 + iota // broadcast or depth probe (elide.go)
	opStream                    // item stream (elide.go)
	opCvg                       // convergecast (converge.go)
	opKindMask uint8 = 3
	opRoot     uint8 = 4
	opWindow   uint8 = 8
)

// opName is each op kind's name in the errors it raises.
var opName = [...]string{opBcast: "BroadcastDown", opStream: "BroadcastItemsDown", opCvg: "Convergecast"}

// opPayload is a root's content of its open op: the broadcast payload
// (a depth probe's depth-0 message) or the stream items. A root's result
// is its own content, also when it has no children and opens no window.
type opPayload struct {
	msg   Message
	items []Message
}

// litSend is an over-bound stream message that the root sends literally
// at round at, the round the relay sends it: stream message k of the
// root's items (the end marker after the last batch), on the first
// child port. Only the first send matters: the barrier fails the run at
// it with the relay's error.
type litSend struct {
	k, port int
	at, dl  int64
}

// payload returns node i's root payload slot, allocating the run's slab
// on first use (safe from parallel workers).
func (e *engine) payload(i int32) *opPayload {
	e.payOnce.Do(func() { e.pay = make([]opPayload, e.n) })
	return &e.pay[i]
}

// beginOp records this node's op of kind k, starting at round start and
// ending at deadline. An op needs at least one round, and a node runs
// one op at a time.
func (a *StepAPI) beginOp(k uint8, t Tree, start, deadline int) {
	if start >= deadline {
		panic(fmt.Sprintf("congest: %s: no rounds (node %d)", opName[k], a.node))
	}
	e := a.eng
	if open := e.opKind[a.node]; open != 0 {
		panic(fmt.Sprintf("congest: %s: node %d begins it with a %s open", opName[k], a.node, opName[open&opKindMask]))
	}
	if t.IsRoot() {
		k |= opRoot
	}
	e.opKind[a.node] = k
}

// Broadcast begins the broadcast of m (read at the root only) from the
// root of t to every node of t at the current round, and returns the
// Status the node yields until the deadline, where Result returns m.
// Results, rounds and traffic are those of the relay, in which the root
// sends to its children at once and every node forwards in the round it
// receives; a root payload above the bit bound is sent literally, so the
// run fails as the relay's does.
func (a *StepAPI) Broadcast(t Tree, deadline int, m Message) Status {
	return a.broadcast(t, deadline, m, DepthMessage{})
}

// BroadcastDepth begins a depth probe at the current round: every node's
// result is m's message for its depth in t (the root's is depth 0). It
// runs as the relay in which each node forwards to its children the
// message for its own depth.
func (a *StepAPI) BroadcastDepth(t Tree, deadline int, m DepthMessage) Status {
	var root Message
	if t.IsRoot() {
		root = m.f(0)
	}
	return a.broadcast(t, deadline, root, m)
}

func (a *StepAPI) broadcast(t Tree, deadline int, m Message, depth DepthMessage) Status {
	a.beginOp(opBcast, t, a.eng.round, deadline)
	if t.IsRoot() {
		a.eng.payload(a.node).msg = m
		if m.Bits() > a.eng.bitBound {
			for _, c := range t.ChildPorts {
				a.Send(c, m)
			}
			return Sleep(deadline)
		}
	}
	a.openWindow(t, deadline, m, nil, false, depth)
	return Sleep(deadline)
}

// Stream begins streaming items, fixed at the root (read there only), to
// every node of t at the current round. Its relay pipelines one B-bit
// batch per round through the tree (packPipe), then an end marker; every
// node reads the items at the deadline through Shared. Items must
// individually fit the bit bound: the relay's first over-bound message
// is sent literally at its round, where the run fails as the relay's
// does.
func (a *StepAPI) Stream(t Tree, deadline int, items []Message) Status {
	e := a.eng
	a.beginOp(opStream, t, e.round, deadline)
	if t.IsRoot() {
		e.payload(a.node).items = items
	}
	k := a.openWindow(t, deadline, nil, items, true, DepthMessage{})
	switch {
	case k < 0 || e.round+k > deadline:
	case k == 0:
		a.sendLiteral(litSend{k: 0, port: t.ChildPorts[0]})
	default:
		e.litMu.Lock()
		if e.lit == nil {
			e.lit = map[int32]litSend{}
		}
		e.lit[a.node] = litSend{k: k, port: t.ChildPorts[0], at: int64(e.round + k), dl: int64(deadline)}
		e.litMu.Unlock()
		e.lits.Add(1)
		return Sleep(e.round + k)
	}
	return Sleep(deadline)
}

// sendLiteral sends stream message l.k of this root's items.
func (a *StepAPI) sendLiteral(l litSend) {
	var m Message = pipeEnd{}
	for rest, k := a.eng.pay[a.node].items, l.k; len(rest) > 0; k-- {
		batch, n := packPipe(rest, a.eng.bitBound)
		if k == 0 {
			m = batch
			break
		}
		rest = rest[n:]
	}
	a.Send(l.port, m)
}

// literal sends node i's pending literal stream message when its round
// has come, and reports the Status to yield when that round is not the
// deadline (the node's program then does not step). It runs only while
// some stream has one pending.
func (e *engine) literal(i int32) (Status, bool) {
	e.litMu.Lock()
	l, ok := e.lit[i]
	if ok = ok && l.at == int64(e.round); ok {
		delete(e.lit, i)
		e.lits.Add(-1)
	}
	e.litMu.Unlock()
	if !ok {
		return Status{}, false
	}
	e.apis[i].sendLiteral(l)
	return Sleep(int(l.dl)), l.at < l.dl
}

// Convergecast begins a convergecast that aggregates one message from
// every node of t to the root, and returns the Status the node yields
// until the deadline, where Result returns the node's subtree aggregate
// (the full aggregate at the root). Each node contributes own; the
// registered combiner merges it with the aggregates of all children
// (ordered as ChildPorts), and in the relay a node sends its subtree
// aggregate to its parent once every child has reported. The op starts
// at round start, the current round or the next one: a node that
// provably receives nothing in the current round's exchange may begin
// the following convergecast a round early and skip its wake at start.
// Its leaves-first send round is then start, as for the nodes that
// begin at start.
func (a *StepAPI) Convergecast(t Tree, start, deadline int, own Message, comb Combiner) Status {
	a.beginOp(opCvg, t, start, deadline)
	a.openCvg(t, start, deadline, own, comb)
	return Sleep(deadline)
}

// endOp ends this node's open op, which must be of kind k, at its
// deadline wake and returns its opKind bits.
func (a *StepAPI) endOp(k uint8) uint8 {
	e := a.eng
	open := e.opKind[a.node]
	if open&opKindMask != k {
		panic(fmt.Sprintf("congest: %s: node %d reads a result with none open", opName[k], a.node))
	}
	e.opKind[a.node] = 0
	return open
}

// underBudget fails the node: the relay would not have completed its op
// of kind k by the deadline.
func (a *StepAPI) underBudget(k uint8) {
	panic(fmt.Sprintf("congest: %s: under budget (node %d)", opName[k], a.node))
}

// Result ends this node's broadcast, depth probe or convergecast at its
// deadline wake and returns the op's result: the root's payload (a depth
// probe's message for the node's depth) or the node's subtree aggregate.
// An op whose relay would not have completed by the deadline fails the
// node with the engine's under-budget error.
func (a *StepAPI) Result() Message {
	if a.eng.opKind[a.node]&opKindMask == opCvg {
		a.endOp(opCvg)
		agg, ok := a.closeCvg()
		if !ok {
			a.underBudget(opCvg)
		}
		return agg
	}
	k := a.endOp(opBcast)
	if k&opRoot != 0 {
		p := &a.eng.pay[a.node]
		m := p.msg
		*p = opPayload{}
		if k&opWindow != 0 {
			a.closeWindow()
		}
		return m
	}
	p, d := a.closeWindow()
	if p == nil {
		a.underBudget(opBcast)
	}
	return p.at(d)
}

// Shared ends this node's item stream at its deadline wake and returns a
// value computed once per stream from its items by build, for all nodes
// of the tree: the first caller computes it, the others get the same
// value, so build must be a pure function of the items, which are
// shared and read-only. A stream whose relay would not have delivered
// every item by the deadline fails the node with the engine's
// under-budget error (at the root it completes).
func (a *StepAPI) Shared(build func(items []Message) any) any {
	var slot *pubSlot
	k := a.endOp(opStream)
	if k&opWindow != 0 {
		slot, _ = a.closeWindow()
	}
	if k&opRoot != 0 {
		p := &a.eng.pay[a.node]
		items := p.items
		*p = opPayload{}
		if slot == nil {
			// A childless root publishes nothing, and a root whose relay
			// runs past the deadline still holds all its items.
			return build(items)
		}
	} else if slot == nil {
		a.underBudget(opStream)
	}
	sv := slot.shared
	sv.once.Do(func() { sv.v = build(slot.items) })
	return sv.v
}

// strayMail fails node i, inside an open op, for the mail in its inbox.
func (e *engine) strayMail(i int, inbox []Inbound) {
	panic(fmt.Sprintf("congest: %s: unexpected message on port %d (node %d)", opName[e.opKind[i]&opKindMask], inbox[0].Port, i))
}

// PipelineUpStep streams every node's items to the root, one B-bit batch
// of items per tree edge per round (packPipe): the standard CONGEST
// pipelining bound with the bit bound fully used, completing within
// ceil(total bits / B) + depth rounds.
type PipelineUpStep struct {
	t            Tree
	deadline     int
	bitBound     int       // captured at Begin (run constant)
	collected    []Message // root: gathered items
	queue        []Message // non-root: pending payloads to forward
	doneChildren int
	sentEnd      bool
	wantNext     bool // non-root: advance one round (NextRound) vs sleep
}

// Begin starts the pipeline at the current round.
func (p *PipelineUpStep) Begin(api *StepAPI, t Tree, deadline int, items []Message) bool {
	p.t, p.deadline, p.bitBound = t, deadline, api.BitBound()
	p.collected = p.collected[:0]
	// The queue backing must be fresh each operation: the batches packed
	// from it alias its slots, and the previous operation's final batches
	// may still sit in a recipient's mailbox at the handover round.
	p.queue = make([]Message, 0, len(items))
	p.doneChildren = 0
	p.sentEnd = false
	if t.IsRoot() {
		p.collected = append(p.collected, items...)
		return api.Round() >= p.deadline
	}
	p.queue = append(p.queue, items...)
	if api.Round() >= p.deadline {
		return true
	}
	p.sendPhase(api)
	return false
}

// sendPhase performs one round's send: a maximal
// bit-bound-sized batch is packed from the queue front (own items and
// received ones re-batch together, so links stay fully utilized).
func (p *PipelineUpStep) sendPhase(api *StepAPI) {
	allDone := p.doneChildren == len(p.t.ChildPorts)
	switch {
	case len(p.queue) > 0:
		m, n := packPipe(p.queue, p.bitBound)
		api.Send(p.t.ParentPort, m)
		p.queue = p.queue[n:]
	case allDone && !p.sentEnd:
		api.Send(p.t.ParentPort, pipeEnd{})
		p.sentEnd = true
	}
	allDone = p.doneChildren == len(p.t.ChildPorts)
	p.wantNext = !(p.sentEnd || (len(p.queue) == 0 && !allDone))
}

// Feed consumes one wake and reports whether the operation completed.
func (p *PipelineUpStep) Feed(api *StepAPI, inbox []Inbound) bool {
	if p.t.IsRoot() {
		if p.doneChildren < len(p.t.ChildPorts) {
			for _, in := range inbox {
				if !p.t.isChildPort(in.Port) {
					panic(fmt.Sprintf("congest: PipelineUp: unexpected message on port %d (node %d)", in.Port, api.Index()))
				}
				var ok bool
				if p.collected, ok = pushPipePayloads(p.collected, in.Msg); !ok {
					if _, end := in.Msg.(pipeEnd); !end {
						panic("congest: PipelineUp: unexpected message type")
					}
					p.doneChildren++
				}
			}
		}
		return api.Round() >= p.deadline
	}
	for _, in := range inbox {
		if !p.t.isChildPort(in.Port) {
			panic(fmt.Sprintf("congest: PipelineUp: unexpected message on port %d (node %d)", in.Port, api.Index()))
		}
		var ok bool
		if p.queue, ok = pushPipePayloads(p.queue, in.Msg); !ok {
			if _, end := in.Msg.(pipeEnd); !end {
				panic("congest: PipelineUp: unexpected message type")
			}
			p.doneChildren++
		}
	}
	if api.Round() >= p.deadline {
		return true
	}
	p.sendPhase(api)
	return false
}

// Wake is the scheduling request while the operation is incomplete.
func (p *PipelineUpStep) Wake() Status {
	if !p.t.IsRoot() && p.wantNext {
		return Running()
	}
	return Sleep(p.deadline)
}

// Result returns, at the root, all items of the tree (its own first, then
// received ones in deterministic arrival order) and whether the stream
// completed; other nodes return nil and whether they flushed their queue.
func (p *PipelineUpStep) Result() ([]Message, bool) {
	if p.t.IsRoot() {
		return p.collected, p.doneChildren == len(p.t.ChildPorts)
	}
	return nil, p.sentEnd && len(p.queue) == 0
}

// WalkState walks the machine for a checkpoint (see Snap). The queue
// backing a restore decodes is necessarily fresh, which preserves Begin's
// no-aliasing invariant for batches still in flight.
func (p *PipelineUpStep) WalkState(c *Snap) {
	c.Tree(&p.t)
	c.Int(&p.deadline)
	c.Int(&p.bitBound)
	c.Msgs(&p.collected)
	c.Msgs(&p.queue)
	c.Int(&p.doneChildren)
	c.Bool(&p.sentEnd)
	c.Bool(&p.wantNext)
}

// walkOpsSection walks the ops open at the snapshot barrier: each node's
// opKind bits and, at a root, its payload and any pending literal send.
// It follows the window sections, so decoding checks that a node's
// window is open exactly when its op says so.
func (e *engine) walkOpsSection(c *Snap) {
	var open []int
	if !c.dec {
		for i, k := range e.opKind {
			if k != 0 {
				open = append(open, i)
			}
		}
	}
	count := len(open)
	SnapUint(c, &count, e.n)
	for j := 0; j < count && c.err == nil; j++ {
		var i int
		if !c.dec {
			i = open[j]
		}
		SnapUint(c, &i, e.n-1)
		if c.dec && c.err == nil && e.opKind[i] != 0 {
			c.fail("op record %d repeats node %d", j, i)
		}
		k := e.opKind[i]
		SnapUint(c, &k, opWindow|opRoot|opKindMask)
		if c.err != nil {
			return
		}
		kind := k & opKindMask
		if c.dec {
			win := e.el != nil && e.el.state[i]&winOpen != 0
			cvg := e.cv != nil && e.cv.node[i].open
			switch {
			case kind == 0:
				c.fail("op record %d has kind %d", j, k)
			case kind == opCvg && (k&opWindow != 0 || !cvg):
				c.fail("convergecast record %d (node %d) has no window", j, i)
			case kind != opCvg && (k&opWindow != 0) != win, kind != opCvg && k&(opWindow|opRoot) == 0:
				c.fail("%s record %d (node %d) disagrees with its window", opName[kind], j, i)
			}
			e.opKind[i] = k
		}
		switch {
		case k&opRoot == 0 || c.err != nil:
		case kind == opBcast:
			p := e.payload(int32(i))
			if c.Msg(&p.msg); c.dec && p.msg == nil {
				c.fail("broadcast root %d has no payload", i)
			}
		case kind == opStream:
			e.walkStreamRoot(c, i)
		}
	}
}

// walkStreamRoot walks stream root i's items and pending literal send.
func (e *engine) walkStreamRoot(c *Snap, i int) {
	p := e.payload(int32(i))
	c.Msgs(&p.items)
	l, pending := e.lit[int32(i)]
	c.Bool(&pending)
	if !pending {
		return
	}
	SnapUint(c, &l.k, len(p.items)+1)
	SnapUint(c, &l.port, e.g.Degree(i)-1)
	SnapUint(c, &l.at, int64(e.maxRounds))
	SnapUint(c, &l.dl, int64(e.maxRounds))
	if c.dec && c.err == nil {
		if l.k == 0 || l.at <= int64(e.round) || l.at > l.dl {
			c.fail("stream root %d sends message %d at round %d (deadline %d) at round %d", i, l.k, l.at, l.dl, e.round)
			return
		}
		if e.lit == nil {
			e.lit = map[int32]litSend{}
		}
		e.lit[int32(i)] = l
		e.lits.Add(1)
	}
}
