package congest

import "fmt"

// The Tree communication primitives. Each primitive is a small state
// machine driven from a StepProgram:
//
//	completed := sm.Begin(api, ...)   // at the operation's start round
//	for !completed {
//	    // yield sm.Wake() to the engine, then on the next wake:
//	    completed = sm.Feed(api, inbox)
//	}
//	result, ok := sm.Result()
//
// All primitives are budget-synchronized: every node of the tree begins
// the same operation with the same deadline, and every node completes
// exactly at the deadline, keeping multi-part schedules in lockstep (the
// paper's emulation style, §2.1.5). The structs are reusable: Begin fully
// resets them, and retained buffers are recycled across operations to
// keep the hot path allocation-free. They are embedded by value in the
// per-node program state, and everything they need per wake reaches them
// through the slab-backed StepAPI (DESIGN.md §8).
//
// Broadcasts, depth probes, item streams and convergecasts run by
// reference (elide.go, converge.go): no message moves, every node
// resolves its result at the deadline, and every node charges exactly the
// messages the hop-by-hop relay would have sent. None of them holds a
// function: a convergecast names a registered combiner and a depth probe
// a registered message constructor, so a checkpoint restores every
// machine from its walk alone. Only the gather (PipelineUpStep), whose
// content is assembled on the way up, relays hop by hop.

// BroadcastDownStep distributes a message from the root to every tree
// node, as an elided window (elide.go): every node reads the root's
// payload at the deadline and charges the relays it would have sent. A
// depth probe (BeginDepth) is the same window with a per-depth payload.
type BroadcastDownStep struct {
	t        Tree
	deadline int
	got      Message
	ok       bool
}

// Begin starts the broadcast of rootMsg (read at the root only) at the
// current round. It returns true when the operation is already complete
// (deadline reached). Results, rounds and traffic are those of the
// relay, in which the root sends to its children at once and every node
// forwards in the round it receives; a root whose payload exceeds the
// bit bound, or a broadcast with no rounds, sends literally, so the run
// fails or ends exactly as the relay would.
func (b *BroadcastDownStep) Begin(api *StepAPI, t Tree, deadline int, rootMsg Message) bool {
	return b.begin(api, t, deadline, rootMsg, DepthMessage{})
}

// BeginDepth starts a depth probe at the current round: every node's
// result is m's message for its depth in t (the root's is depth 0). It
// runs as the relay in which each node forwards to its children the
// message for its own depth.
func (b *BroadcastDownStep) BeginDepth(api *StepAPI, t Tree, deadline int, m DepthMessage) bool {
	var rootMsg Message
	if t.IsRoot() {
		rootMsg = m.f(0)
	}
	return b.begin(api, t, deadline, rootMsg, m)
}

func (b *BroadcastDownStep) begin(api *StepAPI, t Tree, deadline int, rootMsg Message, depth DepthMessage) bool {
	b.t, b.deadline = t, deadline
	b.got, b.ok = nil, false
	if t.IsRoot() {
		b.got, b.ok = rootMsg, true
	}
	if api.Round() < deadline && !(t.IsRoot() && rootMsg.Bits() > api.BitBound()) {
		api.openWindow(t, deadline, rootMsg, nil, false, depth)
		return false
	}
	if t.IsRoot() {
		for _, c := range t.ChildPorts {
			api.Send(c, rootMsg)
		}
	}
	return api.Round() >= b.deadline
}

// Feed consumes one wake and reports whether the operation completed.
func (b *BroadcastDownStep) Feed(api *StepAPI, inbox []Inbound) bool {
	if len(inbox) > 0 {
		panic(fmt.Sprintf("congest: BroadcastDown: unexpected message on port %d (node %d)", inbox[0].Port, api.Index()))
	}
	if api.Round() < b.deadline {
		return false
	}
	if !b.t.IsRoot() || len(b.t.ChildPorts) > 0 {
		if p, d := api.closeWindow(); p != nil && !b.t.IsRoot() {
			b.got, b.ok = p.at(d), true
		}
	}
	return true
}

// Wake is the scheduling request while the operation is incomplete.
func (b *BroadcastDownStep) Wake() Status { return Sleep(b.deadline) }

// Result returns the received message; ok is false when the deadline
// passed before the message arrived (budget too small).
func (b *BroadcastDownStep) Result() (Message, bool) { return b.got, b.ok }

// WalkState walks the machine for a checkpoint (see Snap). An open
// window is carried by the engine's snapshot section.
func (b *BroadcastDownStep) WalkState(c *Snap) {
	c.Tree(&b.t)
	c.Int(&b.deadline)
	c.Msg(&b.got)
	c.Bool(&b.ok)
}

// ConvergecastStep aggregates one message from every tree node to the
// root. Each node contributes its own message; the registered combiner
// merges it with the aggregates of all children (ordered as ChildPorts;
// every child contributes exactly one), and in the relay a node sends
// its subtree aggregate to its parent once every child has reported. It
// runs by reference (converge.go): no message moves, every node resolves
// its aggregate at the deadline, and every node charges exactly the
// up-message it would have sent.
type ConvergecastStep struct {
	ok       bool
	deadline int
	agg      Message
	t        Tree
}

// Begin starts the convergecast at the current round with a registered
// combiner. Results, rounds and traffic are those of the relay. The op
// needs at least one round.
func (c *ConvergecastStep) Begin(api *StepAPI, t Tree, deadline int, own Message, combine Combiner) bool {
	return c.BeginFrom(api, t, api.Round(), deadline, own, combine)
}

// BeginFrom is Begin for an op whose start round is the current round or
// the next one: a node that provably receives nothing in the current
// round's exchange may begin the following convergecast a round early
// and skip its wake at the start round. The node's leaves-first send
// round is then start, as for the nodes that begin at start.
func (c *ConvergecastStep) BeginFrom(api *StepAPI, t Tree, start, deadline int, own Message, combine Combiner) bool {
	if start >= deadline {
		panic(fmt.Sprintf("congest: Convergecast: no rounds (node %d)", api.Index()))
	}
	c.t, c.deadline, c.agg, c.ok = t, deadline, nil, false
	api.openCvg(t, start, deadline, own, combine)
	return false
}

// Feed consumes one wake and reports whether the operation completed.
func (c *ConvergecastStep) Feed(api *StepAPI, inbox []Inbound) bool {
	if len(inbox) > 0 {
		panic(fmt.Sprintf("congest: Convergecast: unexpected message on port %d (node %d)", inbox[0].Port, api.Index()))
	}
	if api.Round() < c.deadline {
		return false
	}
	c.agg, c.ok = api.closeCvg()
	return true
}

// Wake is the scheduling request while the operation is incomplete.
func (c *ConvergecastStep) Wake() Status { return Sleep(c.deadline) }

// Result returns the aggregate (the full aggregate at the root, the
// subtree aggregate elsewhere); ok is false when the deadline passed
// before all children reported. It is valid in the completing wake.
func (c *ConvergecastStep) Result() (Message, bool) { return c.agg, c.ok }

// WalkState walks an in-flight machine for a checkpoint (see Snap). The
// open window is carried by the engine's snapshot section.
func (c *ConvergecastStep) WalkState(s *Snap) {
	s.Tree(&c.t)
	s.Int(&c.deadline)
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

// BroadcastItemsDownStep streams a sequence of items, fixed at the root,
// to every tree node. Its literal schedule pipelines one B-bit batch per
// round through the tree (packPipe), then an end marker; it runs as an
// elided window (elide.go): the root publishes the items, every node
// reads them at the deadline, and every node charges exactly the batches
// it would have relayed. Items must individually fit the bit bound.
type BroadcastItemsDownStep struct {
	t        Tree
	deadline int
	items    []Message // root: the source items; elsewhere: the root's, once complete
	ok       bool
	fail     int      // root: index of the first over-bound stream message (-1: none)
	failAt   int      // root: the round the relay sends it
	slot     *pubSlot // the published stream, in the completing wake
}

// Begin starts the stream at the current round.
func (b *BroadcastItemsDownStep) Begin(api *StepAPI, t Tree, deadline int, items []Message) bool {
	b.t, b.deadline, b.slot = t, deadline, nil
	b.items, b.ok, b.fail, b.failAt = nil, false, -1, 0
	if t.IsRoot() {
		b.items, b.ok = items, true
	}
	if api.Round() >= deadline {
		// No rounds: the root's first send lands in the next op, as the
		// relay's would.
		if t.IsRoot() {
			b.sendLiteral(api, 0)
		}
		return true
	}
	if k := api.openWindow(t, deadline, nil, items, true, DepthMessage{}); k >= 0 && api.Round()+k <= deadline {
		// An over-bound message: send it at its literal round, where the
		// engine fails the run with the relay's error.
		b.fail, b.failAt = k, api.Round()+k
		if k == 0 {
			b.sendLiteral(api, 0)
		}
	}
	return false
}

// sendLiteral sends stream message k (batch k, or the end marker after
// the last batch) from the root to its children.
func (b *BroadcastItemsDownStep) sendLiteral(api *StepAPI, k int) {
	var m Message = pipeEnd{}
	for rest := b.items; len(rest) > 0; k-- {
		batch, n := packPipe(rest, api.BitBound())
		if k == 0 {
			m = batch
			break
		}
		rest = rest[n:]
	}
	for _, c := range b.t.ChildPorts {
		api.Send(c, m)
	}
}

// Feed consumes one wake and reports whether the operation completed.
func (b *BroadcastItemsDownStep) Feed(api *StepAPI, inbox []Inbound) bool {
	if len(inbox) > 0 {
		panic(fmt.Sprintf("congest: BroadcastItemsDown: unexpected message on port %d (node %d)", inbox[0].Port, api.Index()))
	}
	if b.fail > 0 && api.Round() == b.failAt {
		b.sendLiteral(api, b.fail)
		b.fail = -1
	}
	if api.Round() < b.deadline {
		return false
	}
	if !b.t.IsRoot() || len(b.t.ChildPorts) > 0 {
		b.slot, _ = api.closeWindow()
		if b.slot != nil && !b.t.IsRoot() {
			b.items, b.ok = b.slot.items, true
		}
	}
	return true
}

// Wake is the scheduling request while the operation is incomplete.
func (b *BroadcastItemsDownStep) Wake() Status {
	if b.fail > 0 && b.failAt < b.deadline {
		return Sleep(b.failAt)
	}
	return Sleep(b.deadline)
}

// Result returns the full item sequence (shared with every node of the
// tree: read-only) and whether the relay would have delivered it by the
// deadline (at the root: always). It is valid in the completing wake.
func (b *BroadcastItemsDownStep) Result() ([]Message, bool) { return b.items, b.ok }

// Shared returns a value computed once per stream from its items by
// build, for all nodes of the tree (the first caller computes it, the
// others get the same value; build must be a pure function of the
// items). It is valid in the completing wake.
func (b *BroadcastItemsDownStep) Shared(build func(items []Message) any) any {
	if b.slot == nil {
		return build(b.items) // a childless root publishes nothing
	}
	sv := b.slot.shared
	sv.once.Do(func() { sv.v = build(b.slot.items) })
	return sv.v
}

// WalkState walks the machine for a checkpoint (see Snap). Only the root
// holds items (the others read the published stream when it completes).
func (b *BroadcastItemsDownStep) WalkState(c *Snap) {
	c.Tree(&b.t)
	c.Int(&b.deadline)
	if b.t.IsRoot() {
		c.Msgs(&b.items)
	} else {
		var none []Message
		if c.Msgs(&none); none != nil {
			c.fail("stream items at a non-root")
		}
	}
	c.Bool(&b.ok)
	c.Int(&b.fail)
	c.Int(&b.failAt)
}
