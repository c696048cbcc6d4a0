package congest

import (
	"math"
	"sync"
	"sync/atomic"
)

// Elided fixed-content tree windows (DESIGN.md §10). A part-tree
// broadcast or item stream whose content is fixed at the root when it
// begins delivers the same bytes to every tree node; relaying them hop by
// hop only decides *when* each node has them and what traffic the hops
// cost. An elided window replaces the relay: the root publishes the
// payload once into an engine-owned slot, every other tree node sleeps to
// the op deadline and reads the slot there, and every node charges
// exactly the messages it would have relayed. The literal schedule is a
// pure function of the tree: a node at depth d with c children sends
// message k of the stream to its c children at round start+d+k, so its
// traffic is known without running it.
//
// State is per run and lives in the engine:
//
//   - two window records per node, tagged with the window's start round.
//     The next op begins in the same barrier in which the previous op's
//     readers read, so a node writes its new record into the slot its
//     last window did not use; tags are atomic so a reader may probe the
//     slot being rewritten.
//   - two published slots per root, paired with the root's record slots.
//
// A node's depth and root are not given by the caller: they are resolved
// from the parent records, walking up to the root (or to an ancestor
// already resolved) and memoizing both on every record of the walk.
//
// Writes happen at a window's start barrier and reads at its deadline
// barrier or later, so the engine barrier orders them (DESIGN.md §6);
// the only same-barrier accesses are atomic (tags and memos).

// winRec is one node's record of an elided window.
type winRec struct {
	tag    atomic.Int64 // start round + 1; 0: never used
	dl     int64        // the op deadline
	parent int32        // node index of the tree parent; -1 at the root
	fanout int32        // tree children (receivers of this node's relays)
	memo   atomic.Int64 // (depth+1)<<32 | root index; 0: not resolved yet
}

// pubSlot is a root's published window content and its literal size.
type pubSlot struct {
	msg    Message    // single-message broadcast payload (stream: nil)
	items  []Message  // stream items
	cum    []int64    // cum[k]: bits of stream messages 0..k-1 (a broadcast is one message)
	max    int        // largest stream message
	shared *sharedVal // per-stream value (Shared); nil for a broadcast
}

// count is the number of stream messages: 1 for a broadcast, batches+1
// (the end marker) for a stream.
func (p *pubSlot) count() int64 { return int64(len(p.cum) - 1) }

// sharedVal is a per-stream value computed once from the items by the
// first node that asks (BroadcastItemsDownStep.Shared).
type sharedVal struct {
	once sync.Once
	v    any
}

const (
	winSlot uint8 = 1 // state bit: record slot of the node's latest window
	winOpen uint8 = 2 // state bit: that window has not been charged yet
)

type elideState struct {
	win   []winRec      // 2 per node: [2i], [2i+1]
	state []uint8       // per node: winSlot | winOpen
	pub   []*[2]pubSlot // per root, allocated by the root's first window
}

// elide returns the run's window state, allocating it on first use (safe
// from parallel workers).
func (e *engine) elide() *elideState {
	e.elOnce.Do(func() {
		e.el = &elideState{
			win:   make([]winRec, 2*e.n),
			state: make([]uint8, e.n),
			pub:   make([]*[2]pubSlot, e.n),
		}
	})
	return e.el
}

// rec returns node v's record of the window that started at round s, or
// nil when v has none.
func (el *elideState) rec(v int32, s int64) *winRec {
	if r := &el.win[2*v]; r.tag.Load() == s+1 {
		return r
	}
	if r := &el.win[2*v+1]; r.tag.Load() == s+1 {
		return r
	}
	return nil
}

// slot returns the content root r published for the window that started
// at round s.
func (el *elideState) slot(r int32, s int64) *pubSlot {
	k := 0
	if el.win[2*r].tag.Load() != s+1 {
		k = 1
	}
	return &el.pub[r][k]
}

// resolve returns node v's depth in the tree of the window that started
// at round s and the node index of its root: it walks parent records up
// to the nearest resolved ancestor (the root always is) and memoizes
// both on every record of the walk, so a window's nodes resolve in O(1)
// amortized. Concurrent resolvers store identical values. The depth is
// -1 when the walk leaves the window (a parent outside it) or loops: the
// literal relay would never reach v.
func (el *elideState) resolve(v int32, s int64) (depth, root int32) {
	var memo int64
	steps := int32(0)
	for u := v; ; steps++ {
		r := el.rec(u, s)
		if r == nil || int(steps) > len(el.state) {
			return -1, -1
		}
		if memo = r.memo.Load(); memo != 0 {
			break
		}
		u = r.parent
	}
	known, root := int32(memo>>32)-1, int32(memo)
	for u, k := v, steps; k > 0; k-- {
		r := el.rec(u, s)
		r.memo.Store(int64(known+k+1)<<32 | int64(root))
		u = r.parent
	}
	return known + steps, root
}

// chargeRelays charges node i's relays in a depth-d window whose literal
// send rounds are at most limit: stream message k leaves at round
// s+d+k, once per child. With a probe, the relays sent at rounds up to
// attrib go to the phase current at their send round (pAdj), as the
// relay's sends did; the rest fall to the phase of the barrier that
// folds the charge.
func (e *engine) chargeRelays(i int32, r *winRec, p *pubSlot, s int64, d int32, limit, attrib int64) {
	f := int64(r.fanout)
	first := s + int64(d)
	n := min(p.count(), limit-first+1)
	if n <= 0 {
		return
	}
	maxBits := p.max
	if n < p.count() {
		// Cut part-way: only the sent prefix counts.
		maxBits = 0
		for k := int64(0); k < n; k++ {
			maxBits = max(maxBits, int(p.cum[k+1]-p.cum[k]))
		}
	}
	e.charged[i].add(f*n, f*p.cum[n], maxBits)
	if e.probe == nil {
		return
	}
	// Walk the sent stamps [first, last] back to front, one phase
	// segment (between two phase switches) at a time.
	marks, j := e.pMarks, len(e.pMarks)
	for last := min(first+n-1, attrib); last >= first; {
		for j > 0 && marks[j-1].round > last {
			j--
		}
		ph, from := int32(0), first
		if j > 0 {
			ph, from = marks[j-1].phase, max(first, marks[j-1].round)
		}
		k0, k1 := from-first, last-first+1
		e.pAdj[i] = append(e.pAdj[i], phaseCharge{phase: ph, msgs: f * (k1 - k0), bits: f * (p.cum[k1] - p.cum[k0])})
		last = from - 1
	}
}

// publish fills root r's slot k and returns the index of the first stream
// message above the bit bound (-1: none).
func (el *elideState) publish(r int32, k uint8, msg Message, items []Message, stream bool, bound int) int {
	if el.pub[r] == nil {
		el.pub[r] = new([2]pubSlot)
	}
	p := &el.pub[r][k]
	p.msg, p.items, p.shared, p.max = msg, items, nil, 0
	p.cum = append(p.cum[:0], 0)
	over := -1
	add := func(b int) {
		if over < 0 && b > bound {
			over = len(p.cum) - 1
		}
		p.cum = append(p.cum, p.cum[len(p.cum)-1]+int64(b))
		p.max = max(p.max, b)
	}
	if !stream {
		add(msg.Bits())
		return over
	}
	p.shared = new(sharedVal)
	for rest := items; len(rest) > 0; {
		n, b := packLen(rest, bound)
		add(b)
		rest = rest[n:]
	}
	add(pipeEnd{}.Bits())
	return over
}

// openWindow starts an elided window at this node at the current round
// (the op start), with deadline; msg or items are the root's content. A
// childless root opens nothing: no node reads from it and it relays
// nothing. At the root it returns the index of the first stream message
// above the bit bound (-1: none), which the caller must send literally
// at its literal round.
func (a *StepAPI) openWindow(t Tree, deadline int, msg Message, items []Message, stream bool) int {
	isRoot := t.IsRoot()
	if isRoot && len(t.ChildPorts) == 0 {
		return -1
	}
	e := a.eng
	el := e.elide()
	i := a.node
	k := el.state[i]&winSlot ^ winSlot
	el.state[i] = k | winOpen
	r := &el.win[2*i+int32(k)]
	r.dl = int64(deadline)
	r.fanout = int32(len(t.ChildPorts))
	over := -1
	if isRoot {
		r.parent = -1
		r.memo.Store(1<<32 | int64(i))
		over = el.publish(i, k, msg, items, stream, e.bitBound)
	} else {
		r.parent = e.g.Neighbors(int(i))[t.ParentPort]
		r.memo.Store(0)
	}
	r.tag.Store(int64(e.round) + 1)
	return over
}

// closeWindow ends this node's open window at its deadline: it charges
// the node's relays and returns the root's published content, or nil
// when the literal relay would not have delivered the whole stream by
// the deadline.
func (a *StepAPI) closeWindow() *pubSlot {
	e := a.eng
	el := e.elide()
	i := a.node
	st := el.state[i]
	el.state[i] = st &^ winOpen
	r := &el.win[2*i+int32(st&winSlot)]
	s := r.tag.Load() - 1
	d, root := el.resolve(i, s)
	if d < 0 {
		return nil
	}
	p := el.slot(root, s)
	if r.fanout > 0 {
		// Relays of this round are folded by this barrier; earlier ones
		// are attributed to the phases of their rounds.
		e.chargeRelays(i, r, p, s, d, r.dl, int64(e.round)-1)
	}
	if s+int64(d)+p.count()-1 > r.dl {
		return nil
	}
	return p
}

// foldOpenWindows charges, at the end of a run, the windows that were
// still open at the final round — a StopOnReject cut inside a window:
// only the relays the literal schedule sent up to that round count, each
// in the phase current at its send round.
func (e *engine) foldOpenWindows() {
	el := e.el
	if el == nil {
		return
	}
	for i, st := range el.state {
		if st&winOpen == 0 {
			continue
		}
		r := &el.win[2*i+int(st&winSlot)]
		if r.fanout == 0 {
			continue
		}
		s := r.tag.Load() - 1
		if d, root := el.resolve(int32(i), s); d >= 0 {
			e.chargeRelays(int32(i), r, el.slot(root, s), s, d, min(int64(e.round), r.dl), int64(e.round))
		}
		if c := &e.charged[i]; c.msgs != 0 {
			e.foldCharge(c)
		}
		if e.probe != nil {
			for _, a := range e.pAdj[i] {
				ps := e.pStat(a.phase)
				ps.Messages += a.msgs
				ps.Bits += a.bits
			}
			e.pAdj[i] = e.pAdj[i][:0]
		}
	}
}

// walkElideSection walks the windows open at the snapshot barrier: each
// node's record and, at a root, its published content. Decoding restores
// them into record slot 0 of each node. Depth and root memos are not
// carried: they are resolved again from the parent records.
func (e *engine) walkElideSection(c *Snap) {
	var open []int
	if e.el != nil && !c.dec {
		for i, st := range e.el.state {
			if st&winOpen != 0 {
				open = append(open, i)
			}
		}
	}
	count := len(open)
	SnapUint(c, &count, e.n)
	if count == 0 || c.err != nil {
		return
	}
	el := e.elide()
	for j := 0; j < count && c.err == nil; j++ {
		var i int
		var slot uint8
		if !c.dec {
			i = open[j]
			slot = el.state[i] & winSlot
		}
		SnapUint(c, &i, e.n-1)
		r := &el.win[2*i+int(slot)]
		start, dl, parent, fanout := r.tag.Load()-1, r.dl, r.parent, r.fanout
		SnapUint(c, &start, math.MaxInt64)
		SnapUint(c, &dl, int64(e.maxRounds))
		SnapInt(c, &parent, -1, int32(e.n-1))
		SnapUint(c, &fanout, int32(e.n))
		if start >= dl {
			c.fail("window record %d starts at %d, after its deadline %d", j, start, dl)
		}
		if c.dec && c.err == nil {
			r.dl, r.parent, r.fanout = dl, parent, fanout
			r.memo.Store(0)
			r.tag.Store(start + 1)
			el.state[i] = winOpen
		}
		if parent >= 0 {
			continue
		}
		var p pubSlot
		if !c.dec {
			p = el.pub[i][slot]
		}
		stream := p.shared != nil // a stream
		c.Bool(&stream)
		c.Msg(&p.msg)
		c.Msgs(&p.items)
		if c.dec && c.err == nil {
			if !stream && p.msg == nil {
				c.fail("window %d has no payload", j)
				return
			}
			r.memo.Store(1<<32 | int64(i))
			el.publish(int32(i), 0, p.msg, p.items, stream, e.bitBound)
		}
	}
}
