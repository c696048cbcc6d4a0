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
// paper's emulation style, §2.1.5). The structs are reusable: Begin fully resets them, and retained buffers are
// recycled across operations to keep the hot path allocation-free. They
// are embedded by value in the per-node program state, and everything
// they need per wake reaches them through the slab-backed StepAPI
// (DESIGN.md §8); the run-constant bit bound is captured at Begin so the
// per-round send path does not re-chase it through the engine.

// BroadcastDownStep distributes a message from the root to every tree
// node, transformed on each hop by the transform function (nil means
// identity). Nodes forward to their children one round after receiving.
type BroadcastDownStep struct {
	t         Tree
	deadline  int
	transform func(Message) Message
	got       Message
	ok        bool
}

// Begin starts the broadcast at the current round (the root sends to its
// children immediately). It returns true when the operation is already
// complete (deadline reached).
func (b *BroadcastDownStep) Begin(api *StepAPI, t Tree, deadline int, rootMsg Message, transform func(Message) Message) bool {
	b.t, b.deadline, b.transform = t, deadline, transform
	b.got, b.ok = nil, false
	if t.IsRoot() {
		b.got, b.ok = rootMsg, true
		for _, c := range t.ChildPorts {
			api.Send(c, rootMsg)
		}
	}
	return api.Round() >= b.deadline
}

// Feed consumes one wake and reports whether the operation completed.
func (b *BroadcastDownStep) Feed(api *StepAPI, inbox []Inbound) bool {
	if b.got == nil && !b.t.IsRoot() {
		for _, in := range inbox {
			if in.Port != b.t.ParentPort {
				panic(fmt.Sprintf("congest: BroadcastDown: unexpected message on port %d (node %d)", in.Port, api.Index()))
			}
			b.got = in.Msg
		}
		if b.got != nil {
			b.ok = true
			if b.transform != nil {
				b.got = b.transform(b.got)
			}
			for _, c := range b.t.ChildPorts {
				api.Send(c, b.got)
			}
		}
	}
	return api.Round() >= b.deadline
}

// Wake is the scheduling request while the operation is incomplete.
func (b *BroadcastDownStep) Wake() Status { return Sleep(b.deadline) }

// Result returns the received message; ok is false when the deadline
// passed before the message arrived (budget too small).
func (b *BroadcastDownStep) Result() (Message, bool) { return b.got, b.ok }

// EncodeState serializes the machine for a checkpoint. The transform
// function is not serialized: the owning program must reinstall it after
// DecodeState (before the next Feed) when it uses one.
func (b *BroadcastDownStep) EncodeState(e *SnapEncoder) {
	e.Tree(b.t)
	e.Int(b.deadline)
	e.Msg(b.got)
	e.Bool(b.ok)
}

// DecodeState restores the machine from a checkpoint record.
func (b *BroadcastDownStep) DecodeState(d *SnapDecoder) {
	b.t = d.Tree()
	b.deadline = d.Int()
	b.got = d.Msg()
	b.ok = d.Bool()
	b.transform = nil
}

// SetTransform reinstalls the per-hop transform after DecodeState; the
// function itself cannot be serialized.
func (b *BroadcastDownStep) SetTransform(f func(Message) Message) { b.transform = f }

// ConvergecastStep aggregates one message from every tree node to the
// root. Each node contributes its own message; combine merges it with the
// messages of all children (ordered as ChildPorts; every child
// contributes exactly one).
type ConvergecastStep struct {
	t        Tree
	deadline int
	own      Message
	combine  func(own Message, children []Message) Message
	children []Message // reused across operations
	missing  int
	agg      Message
	ok       bool
}

// Begin starts the convergecast at the current round. Leaves send to their
// parent immediately.
func (c *ConvergecastStep) Begin(api *StepAPI, t Tree, deadline int, own Message, combine func(own Message, children []Message) Message) bool {
	c.t, c.deadline, c.own, c.combine = t, deadline, own, combine
	c.children = c.children[:0]
	for range t.ChildPorts {
		c.children = append(c.children, nil)
	}
	c.missing = len(t.ChildPorts)
	c.agg, c.ok = nil, false
	if c.missing == 0 {
		c.finish(api)
	}
	return api.Round() >= c.deadline
}

// Feed consumes one wake and reports whether the operation completed.
func (c *ConvergecastStep) Feed(api *StepAPI, inbox []Inbound) bool {
	if c.missing > 0 {
		for _, in := range inbox {
			idx := -1
			for i, p := range c.t.ChildPorts {
				if p == in.Port {
					idx = i
					break
				}
			}
			if idx == -1 {
				panic(fmt.Sprintf("congest: Convergecast: unexpected message on port %d (node %d)", in.Port, api.Index()))
			}
			if c.children[idx] != nil {
				panic(fmt.Sprintf("congest: Convergecast: duplicate message from child port %d", in.Port))
			}
			c.children[idx] = in.Msg
			c.missing--
		}
		if c.missing == 0 {
			c.finish(api)
		}
	}
	return api.Round() >= c.deadline
}

func (c *ConvergecastStep) finish(api *StepAPI) {
	c.agg = c.combine(c.own, c.children)
	c.ok = true
	if !c.t.IsRoot() {
		api.Send(c.t.ParentPort, c.agg)
	}
}

// Wake is the scheduling request while the operation is incomplete.
func (c *ConvergecastStep) Wake() Status { return Sleep(c.deadline) }

// Result returns the aggregate (the full aggregate at the root, the
// subtree aggregate elsewhere); ok is false when the deadline passed
// before all children reported.
func (c *ConvergecastStep) Result() (Message, bool) { return c.agg, c.ok }

// EncodeState serializes the machine for a checkpoint. The combine
// function is not serialized: the owning program must reinstall it after
// DecodeState when the operation is still in flight.
func (c *ConvergecastStep) EncodeState(e *SnapEncoder) {
	e.Tree(c.t)
	e.Int(c.deadline)
	e.Msg(c.own)
	e.Msgs(c.children)
	e.Int(c.missing)
	e.Msg(c.agg)
	e.Bool(c.ok)
}

// DecodeState restores the machine from a checkpoint record.
func (c *ConvergecastStep) DecodeState(d *SnapDecoder) {
	c.t = d.Tree()
	c.deadline = d.Int()
	c.own = d.Msg()
	c.children = d.Msgs()
	c.missing = d.Int()
	c.agg = d.Msg()
	c.ok = d.Bool()
	c.combine = nil
}

// SetCombine reinstalls the aggregation function after DecodeState; the
// function itself cannot be serialized.
func (c *ConvergecastStep) SetCombine(f func(own Message, children []Message) Message) { c.combine = f }

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

// EncodeState serializes the machine for a checkpoint.
func (p *PipelineUpStep) EncodeState(e *SnapEncoder) {
	e.Tree(p.t)
	e.Int(p.deadline)
	e.Int(p.bitBound)
	e.Msgs(p.collected)
	e.Msgs(p.queue)
	e.Int(p.doneChildren)
	e.Bool(p.sentEnd)
	e.Bool(p.wantNext)
}

// DecodeState restores the machine from a checkpoint record. The queue
// backing decoded here is necessarily fresh, which preserves Begin's
// no-aliasing invariant for batches still in flight.
func (p *PipelineUpStep) DecodeState(d *SnapDecoder) {
	p.t = d.Tree()
	p.deadline = d.Int()
	p.bitBound = d.Int()
	p.collected = d.Msgs()
	p.queue = d.Msgs()
	p.doneChildren = d.Int()
	p.sentEnd = d.Bool()
	p.wantNext = d.Bool()
}

// BroadcastItemsDownStep streams a sequence of items from the root to
// every tree node, one B-bit batch per round, pipelined through the tree.
// Items must individually fit the bit bound.
type BroadcastItemsDownStep struct {
	t        Tree
	deadline int
	bitBound int       // captured at Begin (run constant)
	items    []Message // root: the source items
	got      []Message // non-root: received items (reused)
	next     int       // root: index of the next item to send
	endSent  bool      // root: pipeEnd dispatched
	done     bool      // non-root: pipeEnd received

	// Keep, when non-nil, filters which received items a non-root node
	// retains in its Result slice. Forwarding down the tree (and thus the
	// message schedule) is unaffected — the filter only cuts the local
	// buffer, for streams where a node needs a small slice of the items
	// (e.g. its own rotation entries out of the whole part's). Set it
	// before Begin; it applies until replaced, so callers reusing the
	// struct for an unfiltered stream must reset it to nil before that
	// Begin. The root's Result is always the unfiltered source items.
	Keep func(Message) bool
}

// Begin starts the stream at the current round (the root sends the first
// item immediately).
func (b *BroadcastItemsDownStep) Begin(api *StepAPI, t Tree, deadline int, items []Message) bool {
	b.t, b.deadline, b.items = t, deadline, items
	b.bitBound = api.BitBound()
	b.got = b.got[:0]
	b.next, b.endSent, b.done = 0, false, false
	if t.IsRoot() {
		b.rootSend(api)
	}
	return api.Round() >= b.deadline
}

func (b *BroadcastItemsDownStep) rootSend(api *StepAPI) {
	if b.next < len(b.items) {
		m, n := packPipe(b.items[b.next:], b.bitBound) // boxed once for all children
		b.next += n
		for _, c := range b.t.ChildPorts {
			api.Send(c, m)
		}
		return
	}
	if !b.endSent {
		for _, c := range b.t.ChildPorts {
			api.Send(c, pipeEnd{})
		}
		b.endSent = true
	}
}

// Feed consumes one wake and reports whether the operation completed.
func (b *BroadcastItemsDownStep) Feed(api *StepAPI, inbox []Inbound) bool {
	if b.t.IsRoot() {
		if !b.endSent {
			b.rootSend(api)
		}
		return api.Round() >= b.deadline
	}
	if !b.done {
		for _, in := range inbox {
			if in.Port != b.t.ParentPort {
				panic(fmt.Sprintf("congest: BroadcastItemsDown: unexpected message on port %d (node %d)", in.Port, api.Index()))
			}
			switch m := in.Msg.(type) {
			case pipeItem:
				if b.Keep == nil || b.Keep(m.payload) {
					b.got = append(b.got, m.payload)
				}
			case pipeBatch:
				for _, pl := range m.payloads {
					if b.Keep == nil || b.Keep(pl) {
						b.got = append(b.got, pl)
					}
				}
			case pipeEnd:
				b.done = true
				for _, c := range b.t.ChildPorts {
					api.Send(c, pipeEnd{})
				}
				continue
			default:
				panic("congest: BroadcastItemsDown: unexpected message type")
			}
			for _, c := range b.t.ChildPorts {
				api.Send(c, in.Msg) // forward the already-boxed message
			}
		}
	}
	return api.Round() >= b.deadline
}

// Wake is the scheduling request while the operation is incomplete.
func (b *BroadcastItemsDownStep) Wake() Status {
	if b.t.IsRoot() && !b.endSent {
		return Running()
	}
	return Sleep(b.deadline)
}

// Result returns the full item sequence as seen by this node; ok is false
// when the deadline was too small. Non-root callers must copy the slice if
// they retain it (it is reused by the next Begin).
func (b *BroadcastItemsDownStep) Result() ([]Message, bool) {
	if b.t.IsRoot() {
		return b.items, true
	}
	return b.got, b.done
}

// EncodeState serializes the machine for a checkpoint. Keep is not
// serialized: the owning program must reinstall it after DecodeState
// when the in-flight stream uses a filter.
func (b *BroadcastItemsDownStep) EncodeState(e *SnapEncoder) {
	e.Tree(b.t)
	e.Int(b.deadline)
	e.Int(b.bitBound)
	e.Msgs(b.items)
	e.Msgs(b.got)
	e.Int(b.next)
	e.Bool(b.endSent)
	e.Bool(b.done)
}

// DecodeState restores the machine from a checkpoint record.
func (b *BroadcastItemsDownStep) DecodeState(d *SnapDecoder) {
	b.t = d.Tree()
	b.deadline = d.Int()
	b.bitBound = d.Int()
	b.items = d.Msgs()
	b.got = d.Msgs()
	b.next = d.Int()
	b.endSent = d.Bool()
	b.done = d.Bool()
	b.Keep = nil
}
