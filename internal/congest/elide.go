package congest

import (
	"fmt"
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
// A depth probe is the same window with a payload that depends on the
// depth: its relay forwards, at every node, the message for that node's
// depth, built by a registered constructor (DepthMessage). The root
// publishes the constructor's kind, every node resolves its own depth and
// builds its message at the deadline, and it charges its children that
// message, once each, at its literal send round start+d.
//
// State is per run and lives in the engine:
//
//   - two window records per node, tagged with the window's start round.
//     The next op begins in the same barrier in which the previous op's
//     readers read, so a node writes its new record into the slot its
//     latest window does not use, and the engine makes it the latest
//     after the barrier's steps (commitOpened): readers only read a
//     node's latest record, which no write touches within a barrier.
//   - two published slots per root, paired with the root's record slots.
//
// A node's depth and root are not given by the caller: they are resolved
// from the parent records, walking up to the root (or to an ancestor
// already resolved) and memoizing both on every record of the walk. A
// node keeps them for its next windows while no node opens a window
// under a parent other than its last (depthOf).
//
// Writes happen at a window's start barrier and reads at its deadline
// barrier or later, so the engine barrier orders them (DESIGN.md §6);
// the only same-barrier accesses are the resolvers' atomic memos.

// winRec is one node's record of an elided window.
type winRec struct {
	tag    int64 // start round + 1; 0: never used
	dl     int64 // the op deadline
	parent int32 // node index of the tree parent; -1 at the root
	fanout int32 // tree children (receivers of this node's relays)
	memo   int64 // (depth+1)<<32 | root index; 0: not resolved yet (atomic but at the open)
}

// pubSlot is a root's published window content and its literal size.
type pubSlot struct {
	tag    int64        // the window's start round + 1
	msg    Message      // single-message broadcast payload (stream: nil)
	depth  DepthMessage // a depth probe's constructor (msg is its depth-0 message)
	items  []Message    // stream items
	cum    []int64      // cum[k]: bits of stream messages 0..k-1 (a broadcast is one message)
	max    int          // largest stream message
	shared *sharedVal   // per-stream value (Shared); nil for a broadcast
}

// at returns the broadcast payload that a node at depth d holds.
func (p *pubSlot) at(d int32) Message {
	if p.depth.f != nil {
		return p.depth.f(int64(d))
	}
	return p.msg
}

// DepthMessage is a registered depth-probe message constructor: f(d) is
// the message a node at depth d of the broadcast tree holds and relays
// to its children (StepAPI.BroadcastDepth). Every message it
// returns for a depth below n must fit the bit bound. The zero value is
// not a constructor.
type DepthMessage struct {
	kind uint16
	f    func(depth int64) Message
}

var depthByKind = map[uint16]func(int64) Message{}

// RegisterDepthMessage declares f as the depth-probe constructor of a
// non-zero kind, the name a checkpoint records for it. Call it from a
// package-level variable or init; duplicate kinds panic.
func RegisterDepthMessage(kind uint16, f func(depth int64) Message) DepthMessage {
	if kind == 0 {
		panic("congest: depth message kind 0 is reserved")
	}
	if _, dup := depthByKind[kind]; dup {
		panic(fmt.Sprintf("congest: duplicate depth message kind %d", kind))
	}
	depthByKind[kind] = f
	return DepthMessage{kind: kind, f: f}
}

// count is the number of stream messages: 1 for a broadcast, batches+1
// (the end marker) for a stream.
func (p *pubSlot) count() int64 { return int64(len(p.cum) - 1) }

// sharedVal is a per-stream value computed once from the items by the
// first node that asks (StepAPI.Shared).
type sharedVal struct {
	once sync.Once
	v    any
}

const (
	winSlot uint8 = 1 // state bit: record slot of the node's latest window
	winOpen uint8 = 2 // state bit: that window has not been charged yet
)

type elideState struct {
	win    []winRec      // 2 per node: [2i], [2i+1]
	state  []uint8       // per node: winSlot | winOpen, as the node last wrote them
	latest []uint8       // per node: its latest window's slot, as committed
	pub    []*[2]pubSlot // per root, allocated by the root's first window

	// shape counts the windows opened under a parent other than the
	// opening node's last one, and shapeAt is its value when the current
	// barrier began; known keeps each node's last depth and root with
	// the shapeAt they were resolved at (depthOf).
	shape   atomic.Int64
	shapeAt int64
	known   []depthMemo
}

// depthMemo is a node's last resolved depth and root, and the parent it
// last opened a window under.
type depthMemo struct {
	parent int32 // node index + 1; 0: no window yet
	depth  int32
	root   int32
	shape  int64       // shapeAt + 1 at the resolution; 0: none
	pub    *[2]pubSlot // the root's published slots
}

// elide returns the run's window state, allocating it on first use (safe
// from parallel workers).
func (e *engine) elide() *elideState {
	e.elOnce.Do(func() {
		e.el = &elideState{
			win:    make([]winRec, 2*e.n),
			state:  make([]uint8, e.n),
			latest: make([]uint8, e.n),
			pub:    make([]*[2]pubSlot, e.n),
			known:  make([]depthMemo, e.n),
		}
	})
	return e.el
}

// rec returns node v's record of the window that started at round s, or
// nil when v's latest window is another.
func (el *elideState) rec(v int32, s int64) *winRec {
	if r := &el.win[2*v+int32(el.latest[v])]; r.tag == s+1 {
		return r
	}
	return nil
}

// slot returns the content root r published for its latest window.
func (el *elideState) slot(r int32) *pubSlot { return &el.pub[r][el.latest[r]] }

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
		if memo = atomic.LoadInt64(&r.memo); memo != 0 {
			break
		}
		u = r.parent
	}
	known, root := int32(memo>>32)-1, int32(memo)
	for u, k := v, steps; k > 0; k-- {
		r := el.rec(u, s)
		atomic.StoreInt64(&r.memo, int64(known+k+1)<<32|int64(root))
		u = r.parent
	}
	return known + steps, root
}

// depthOf returns node v's depth in the window that started at round s,
// as resolve does, and its root's published content (nil when the depth
// is -1). Parent records only change when a node opens a window, so
// while no node has opened one under a new parent since v last resolved
// (shape is where it was), every depth and root is where it was, and v
// reuses its last ones once its root has published for the window. As
// for the relay, every node of a window's tree opens the window.
func (el *elideState) depthOf(v int32, s int64) (int32, *pubSlot) {
	m := &el.known[v]
	if m.shape == el.shapeAt+1 {
		if p := &m.pub[el.latest[m.root]]; p.tag == s+1 {
			return m.depth, p
		}
	}
	depth, root := el.resolve(v, s)
	if depth < 0 {
		return -1, nil
	}
	m.depth, m.root, m.shape, m.pub = depth, root, el.shapeAt+1, el.pub[root]
	return depth, el.slot(root)
}

// chargeRelays charges node i's relays in a depth-d window whose literal
// send rounds are at most limit: stream message k leaves at round
// s+d+k, once per child; a depth probe's one message is the one for
// depth d. With a probe, the relays sent at rounds up to attrib go to
// the phase current at their send round (pAdj), as the relay's sends
// did; the rest fall to the phase of the barrier that folds the charge.
func (e *engine) chargeRelays(i int32, r *winRec, p *pubSlot, s int64, d int32, limit, attrib int64) {
	f := int64(r.fanout)
	first := s + int64(d)
	n := min(p.count(), limit-first+1)
	if n <= 0 {
		return
	}
	cum, maxBits := p.cum, p.max
	if p.depth.f != nil {
		b := p.at(d).Bits()
		cum, maxBits = []int64{0, int64(b)}, b
	}
	if n < p.count() {
		// Cut part-way: only the sent prefix counts.
		maxBits = 0
		for k := int64(0); k < n; k++ {
			maxBits = max(maxBits, int(cum[k+1]-cum[k]))
		}
	}
	e.charged[i].add(f*n, f*cum[n], maxBits)
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
		e.pAdj[i] = append(e.pAdj[i], phaseCharge{phase: ph, msgs: f * (k1 - k0), bits: f * (cum[k1] - cum[k0])})
		last = from - 1
	}
}

// publish fills root r's slot k and returns the index of the first stream
// message above the bit bound (-1: none).
func (el *elideState) publish(r int32, k uint8, tag int64, msg Message, items []Message, stream bool, depth DepthMessage, bound int) int {
	if el.pub[r] == nil {
		el.pub[r] = new([2]pubSlot)
	}
	p := &el.pub[r][k]
	p.tag, p.msg, p.items, p.depth, p.shared, p.max = tag, msg, items, depth, nil, 0
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
// (the op start), with deadline, and marks the node's op as windowed
// (opWindow); msg or items are the root's content, and a depth probe's
// root also gives its constructor (msg is then the constructor's
// depth-0 message). A childless root opens nothing: no node reads from
// it and it relays nothing. At the root it returns the index of the
// first stream message above the bit bound (-1: none), which the caller
// must send literally at its literal round.
func (a *StepAPI) openWindow(t Tree, deadline int, msg Message, items []Message, stream bool, depth DepthMessage) int {
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
	r.tag = int64(e.round) + 1
	r.dl = int64(deadline)
	r.fanout = int32(len(t.ChildPorts))
	over := -1
	if isRoot {
		r.parent = -1
		r.memo = 1<<32 | int64(i)
		over = el.publish(i, k, r.tag, msg, items, stream, depth, e.bitBound)
	} else {
		r.parent = e.g.Neighbors(int(i))[t.ParentPort]
		r.memo = 0
	}
	if m := &el.known[i]; m.parent != r.parent+1 {
		m.parent = r.parent + 1
		el.shape.Add(1)
	}
	e.opened[i] |= openedElide
	e.opKind[i] |= opWindow
	return over
}

// closeWindow ends this node's open window at its deadline: it charges
// the node's relays and returns the root's published content and the
// node's depth, or nil when the literal relay would not have delivered
// the whole stream by the deadline.
func (a *StepAPI) closeWindow() (*pubSlot, int32) {
	e := a.eng
	el := e.elide()
	i := a.node
	st := el.state[i]
	el.state[i] = st &^ winOpen
	r := &el.win[2*i+int32(st&winSlot)]
	s := r.tag - 1
	d, p := el.depthOf(i, s)
	if d < 0 {
		return nil, d
	}
	if p.depth.f != nil && r.fanout > 0 {
		if b := p.at(d).Bits(); b > e.bitBound {
			panic(fmt.Sprintf("congest: node %d sent %d-bit message, bound is %d", i, b, e.bitBound))
		}
	}
	if r.fanout > 0 {
		// Relays of this round are folded by this barrier; earlier ones
		// are attributed to the phases of their rounds.
		e.chargeRelays(i, r, p, s, d, r.dl, int64(e.round)-1)
	}
	if s+int64(d)+p.count()-1 > r.dl {
		return nil, d
	}
	return p, d
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
		s := r.tag - 1
		if d, root := el.resolve(int32(i), s); d >= 0 {
			e.chargeRelays(int32(i), r, el.slot(root), s, d, min(int64(e.round), r.dl), int64(e.round))
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
// node's record and, at a root, its published content (a depth probe's
// as its depth-0 message and constructor kind). Decoding restores
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
		start, dl, parent, fanout := r.tag-1, r.dl, r.parent, r.fanout
		SnapUint(c, &start, math.MaxInt64)
		SnapUint(c, &dl, int64(e.maxRounds))
		SnapInt(c, &parent, -1, int32(e.n-1))
		SnapUint(c, &fanout, int32(e.n))
		if start >= dl {
			c.fail("window record %d starts at %d, after its deadline %d", j, start, dl)
		}
		if c.dec && c.err == nil {
			r.tag, r.dl, r.parent, r.fanout, r.memo = start+1, dl, parent, fanout, 0
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
		SnapUint(c, &p.depth.kind, math.MaxUint16)
		if c.dec && c.err == nil {
			if p.depth.kind != 0 {
				var known bool
				if p.depth.f, known = depthByKind[p.depth.kind]; !known || stream {
					c.fail("window %d has depth message kind %d", j, p.depth.kind)
					return
				}
			}
			if !stream && p.msg == nil {
				c.fail("window %d has no payload", j)
				return
			}
			r.memo = 1<<32 | int64(i)
			el.publish(int32(i), 0, start+1, p.msg, p.items, stream, p.depth, e.bitBound)
		}
	}
}
