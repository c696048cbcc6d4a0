package congest

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Convergecasts by reference (DESIGN.md §10). A part-tree convergecast
// has a literal schedule that is a pure function of the tree: a node
// whose subtree has height h sends its subtree aggregate to its parent at
// round start+h, and the aggregate is the combiner applied to the node's
// own contribution and its children's aggregates in ChildPorts order. A
// by-reference window replaces the relay: every node publishes its
// contribution into an engine-owned record when the op begins and sleeps
// to the deadline; at the deadline wake each node resolves its aggregate
// from the records, folding any child subtree not resolved yet, and
// charges the one up-message it would have sent, with its exact bits, at
// its literal send round. A leaf's aggregate under a deterministic
// combiner is known when it opens, so its record opens resolved.
//
// A combiner may draw from the randomness of the node whose aggregate it
// folds (RegisterRandomCombiner). The fold runs under that node's
// record's claim, and while its window is open the node sleeps, so the
// resolver is the only one that touches its stream; since every node's
// record is folded once, and only when the relay would have combined at
// that node, each node makes the draws the relay makes, in the same
// order. A leaf's record then opens unresolved: a checkpoint carries
// the node's draw count but not the resolution, so a fold at the open
// would be drawn again after a restore.
//
// State is per run and lives in the engine: two records per node, so a
// node can open its next window in the barrier in which a parent still
// resolves its last one. A node writes its new window into the record
// that does not hold its latest one, and the engine makes it the latest
// after the barrier's steps (commitOpened): within a barrier, which record
// is a node's latest never changes, and no resolver reads the one being
// written. A record's resolution is claimed with one atomic word, so
// every aggregate is computed exactly once across the barrier's workers,
// by whichever resolver reaches it first; a resolver that finds a record
// claimed by another waits for it. Waits only go from a node to a child,
// so they cannot form a cycle in a tree; a resolver that finds its wait
// chain leading back to itself has met a cycle, whose nodes the literal
// relay never completes.

// Combiner is a registered convergecast combiner: a function of its
// argument, the node's own contribution and its children's aggregates
// (in ChildPorts order), and, for a random one, of the folded node's
// randomness, and of nothing else. It may run on any worker and at any
// node's wake of the window, so it must not retain or modify its inputs,
// and its result must not alias memory that anything rewrites later.
// The zero value is not a combiner.
type Combiner struct {
	kind uint16
	arg  int64
	f    func(arg int64, own Message, children []Message) Message
	rf   func(rng *rand.Rand, arg int64, own Message, children []Message) Message
}

var combByKind = map[uint16]Combiner{}

// RegisterCombiner declares f as the combiner of a non-zero kind, the
// name a checkpoint records for it, and returns it with argument 0.
// Call it from a package-level variable or init; duplicate kinds panic.
func RegisterCombiner(kind uint16, f func(arg int64, own Message, children []Message) Message) Combiner {
	return registerCombiner(Combiner{kind: kind, f: f})
}

// RegisterRandomCombiner is RegisterCombiner for a combiner that draws
// from rng, the randomness (StepAPI.Rand) of the node whose aggregate it
// folds. A node must not draw from its own randomness while its window
// is open, before Result closes it.
func RegisterRandomCombiner(kind uint16, f func(rng *rand.Rand, arg int64, own Message, children []Message) Message) Combiner {
	return registerCombiner(Combiner{kind: kind, rf: f})
}

func registerCombiner(c Combiner) Combiner {
	if c.kind == 0 {
		panic("congest: combiner kind 0 is reserved")
	}
	if _, dup := combByKind[c.kind]; dup {
		panic(fmt.Sprintf("congest: duplicate combiner kind %d", c.kind))
	}
	combByKind[c.kind] = c
	return c
}

// fold applies node v's combiner.
func (e *engine) fold(v int32, c Combiner, own Message, children []Message) Message {
	if c.rf != nil {
		return c.rf(e.rand(v), c.arg, own, children)
	}
	return c.f(c.arg, own, children)
}

// With returns the combiner called with argument arg.
func (c Combiner) With(arg int64) Combiner {
	c.arg = arg
	return c
}

// A record's resolution word: open, claimed by the resolution that the
// wake of node owner started (owner+1), or resolved with the subtree
// height h (-(h+2)). Opening a window writes it plainly, which no
// concurrent access can reach and which spares the open an atomic
// store's fence; every other access is atomic.
const cvOpen int64 = 0

// cvRec is a node's record of one window.
type cvRec struct {
	tag int64   // start round + 1; 0: never used
	st  int64   // resolution word
	agg Message // resolved subtree aggregate; nil when never sent
}

// cvNode is the inputs of a node's latest window, read only while that
// window's record is unresolved, hence before the node can open another.
type cvNode struct {
	open  bool // opened and not yet closed by the node
	root  bool
	dl    int64 // the op deadline
	ports []int // the node's child ports, in ChildPorts order
	own   Message
	comb  Combiner
	ch    []Message // fold scratch: the children's aggregates
}

// cvgState is a run's window state, in three slabs by who reads them: a
// parent's resolution reads a child's latest-record index (one byte, so
// the slab stays cached) and that record (two records are one cache
// line); only the resolution that folds a node reads its inputs.
type cvgState struct {
	rec  [][2]cvRec
	slot []uint8 // per node: its latest window's record
	node []cvNode
	wait []atomic.Pointer[cvRec] // per resolving node: the claimed record it waits for
	// The first up-message above the bit bound that a closing node
	// found, by (send round, node); the barrier reports it (cvViolation).
	violMu              sync.Mutex
	viol                bool
	violStamp, violBits int64
	violNode            int32
}

// cvg returns the run's convergecast state, allocating it on first use
// (safe from parallel workers).
func (e *engine) cvg() *cvgState {
	e.cvOnce.Do(func() {
		e.cv = &cvgState{
			rec:  make([][2]cvRec, e.n),
			slot: make([]uint8, e.n),
			node: make([]cvNode, e.n),
			wait: make([]atomic.Pointer[cvRec], e.n),
		}
	})
	return e.cv
}

// window returns node v's record of the window that started at round s, or
// nil when v has none.
func (cs *cvgState) window(v int32, s int64) *cvRec {
	if r := &cs.rec[v][cs.slot[v]]; r.tag == s+1 {
		return r
	}
	return nil
}

// openCvg opens a by-reference window at this node: start is the op's
// start round (the current or the next round), deadline its last. The
// window becomes the node's latest when the barrier commits it
// (commitOpened).
func (a *StepAPI) openCvg(t Tree, start, deadline int, own Message, comb Combiner) {
	e := a.eng
	cs := e.cvg()
	nd := &cs.node[a.node]
	r := &cs.rec[a.node][cs.slot[a.node]^1]
	r.tag, r.st, r.agg = int64(start)+1, cvOpen, nil
	if len(t.ChildPorts) == 0 && comb.rf == nil {
		r.st, r.agg = -2, comb.f(comb.arg, own, nil)
	}
	nd.open, nd.root, nd.dl = true, t.IsRoot(), int64(deadline)
	nd.ports, nd.own, nd.comb = t.ChildPorts, own, comb
	e.opened[a.node] |= openedCvg
}

// closeCvg ends this node's open window at its deadline: it resolves the
// node's subtree aggregate, charges the up-message the relay would have
// sent at round start+h, and returns the aggregate, or ok false when the
// relay would not have completed it by the deadline.
func (a *StepAPI) closeCvg() (Message, bool) {
	e := a.eng
	cs := e.cv
	i := a.node
	nd := &cs.node[i]
	nd.open = false
	r := &cs.rec[i][cs.slot[i]]
	s := r.tag - 1
	h, _ := e.cvResolve(i, r, s, i)
	if h > nd.dl-s {
		return nil, false
	}
	if !nd.root {
		b := r.agg.Bits()
		if stamp := s + h; b > e.bitBound {
			// The relay fails the run at this send; the barrier reports
			// the first such send (cvViolation).
			cs.noteViolation(i, stamp, b)
		} else {
			e.charged[i].add(1, int64(b), b)
			if e.probe != nil && stamp < int64(e.round) {
				e.pAdj[i] = append(e.pAdj[i], phaseCharge{phase: e.phaseAt(stamp), msgs: 1, bits: int64(b)})
			}
		}
	}
	return r.agg, true
}

// noteViolation records node i's send of a b-bit up-message at round t,
// keeping the first by (round, node).
func (cs *cvgState) noteViolation(i int32, t int64, b int) {
	cs.violMu.Lock()
	if !cs.viol || t < cs.violStamp || (t == cs.violStamp && i < cs.violNode) {
		cs.viol, cs.violStamp, cs.violNode, cs.violBits = true, t, i, int64(b)
	}
	cs.violMu.Unlock()
}

// cvResolve resolves node v's record r of the window that started at s,
// on behalf of the wake of node me, and returns the subtree height: it
// folds r unless another resolution has, waiting while one holds it. It
// reports false when the wait would never end: the holder waits, through
// a chain of holders, for a record me holds — a cycle, every node of
// which the relay never completes.
func (e *engine) cvResolve(v int32, r *cvRec, s int64, me int32) (int64, bool) {
	for waiting := false; ; {
		st := atomic.LoadInt64(&r.st)
		switch {
		case st < cvOpen:
			if waiting {
				e.cv.wait[me].Store(nil)
			}
			return -st - 2, true
		case st == cvOpen:
			if atomic.CompareAndSwapInt64(&r.st, cvOpen, int64(me)+1) {
				return e.foldClaimed(v, r, s, me), true
			}
		default:
			if !waiting {
				e.cv.wait[me].Store(r)
				waiting = true
			}
			if e.cv.waitsFor(int32(st-1), me) {
				e.cv.wait[me].Store(nil)
				return 0, false
			}
			runtime.Gosched()
		}
	}
}

// foldClaimed folds the record r that the resolution of node me has
// claimed and resolves it. A combiner that panics leaves r resolved as
// never sent, so no resolver waits for it while the panic fails the run.
func (e *engine) foldClaimed(v int32, r *cvRec, s int64, me int32) (h int64) {
	h = -1
	defer func() {
		if h < 0 {
			atomic.StoreInt64(&r.st, -(1<<62)-2)
		}
	}()
	h = e.cvFold(v, r, s, me)
	atomic.StoreInt64(&r.st, -h-2)
	return h
}

// waitsFor reports whether the resolution of node owner waits, through
// a chain of claimed records, for one that me holds. A chain is at most
// as long as the number of resolutions running at once.
func (cs *cvgState) waitsFor(owner, me int32) bool {
	for k := 0; k <= len(cs.node); k++ {
		if owner == me {
			return true
		}
		w := cs.wait[owner].Load()
		if w == nil {
			return false
		}
		st := atomic.LoadInt64(&w.st)
		if st <= cvOpen {
			return false
		}
		owner = int32(st - 1)
	}
	return false
}

// cvFold computes the height of v's subtree, capped at one past the
// window's rounds, and, when the relay completes it by the deadline,
// stores its aggregate in r: it resolves each child's record (a child
// with no record for the window never reports).
func (e *engine) cvFold(v int32, r *cvRec, s int64, me int32) int64 {
	nd := &e.cv.node[v]
	limit := nd.dl - s
	h := int64(0)
	nd.ch = nd.ch[:0]
	nbrs := e.g.Neighbors(int(v))
	for _, p := range nd.ports {
		c := nbrs[p]
		rc := e.cv.window(c, s)
		if rc == nil {
			clear(nd.ch)
			return limit + 1
		}
		hc, ok := e.cvResolve(c, rc, s, me)
		if h = max(h, hc+1); !ok || h > limit {
			clear(nd.ch)
			return limit + 1
		}
		nd.ch = append(nd.ch, rc.agg)
	}
	r.agg = e.fold(v, nd.comb, nd.own, nd.ch)
	clear(nd.ch)
	return h
}

// phaseAt returns the phase current at round t: the phase of the last
// switch at or before t.
func (e *engine) phaseAt(t int64) int32 {
	k := sort.Search(len(e.pMarks), func(j int) bool { return e.pMarks[j].round > t })
	if k == 0 {
		return 0
	}
	return e.pMarks[k-1].phase
}

// cvViolation returns the relay's error for the first up-message above
// the bit bound, by (send round, node), among the sends at or before the
// current round (nil: none), with that node and round: the one a closing
// node found, or one of a window still open, which it resolves. It runs
// on the engine loop, only at a barrier that ends the run.
func (e *engine) cvViolation() (err error, node int32, stamp int64) {
	cs := e.cv
	if cs == nil {
		return nil, 0, 0
	}
	round := int64(e.round)
	for v := range cs.node {
		nd := &cs.node[v]
		if !nd.open || nd.root {
			continue
		}
		r := &cs.rec[v][cs.slot[v]]
		s := r.tag - 1
		h, _ := e.cvResolve(int32(v), r, s, int32(v))
		if h > nd.dl-s || s+h > round {
			continue
		}
		if b := r.agg.Bits(); b > e.bitBound {
			cs.noteViolation(int32(v), s+h, b)
		}
	}
	if !cs.viol {
		return nil, 0, 0
	}
	return fmt.Errorf("congest: node %d sent %d-bit message, bound is %d", cs.violNode, cs.violBits, e.bitBound),
		cs.violNode, cs.violStamp
}

// foldOpenCvg charges, at the end of a run, the windows still open at
// the final round — a StopOnReject cut inside a window: only the
// up-messages the relay sent up to that round count, each in the phase
// current at its send round. An up-message above the bit bound among
// them fails the run with the relay's error, unless an earlier error
// ended it.
func (e *engine) foldOpenCvg() {
	cs := e.cv
	if cs == nil {
		return
	}
	defer func() {
		if r := recover(); r != nil && e.runErr == nil {
			e.runErr = fmt.Errorf("congest: convergecast fold panicked at round %d: %v", e.round, r)
		}
	}()
	if e.runErr == nil {
		if err, _, _ := e.cvViolation(); err != nil {
			e.runErr = err
			return
		}
	}
	round := int64(e.round)
	for v := range cs.node {
		nd := &cs.node[v]
		if !nd.open || nd.root {
			continue
		}
		r := &cs.rec[v][cs.slot[v]]
		s := r.tag - 1
		h, _ := e.cvResolve(int32(v), r, s, int32(v))
		if h > nd.dl-s || s+h > round {
			continue
		}
		b := r.agg.Bits()
		c := charge{msgs: 1, bits: int64(b), max: b}
		e.foldCharge(&c)
		if e.probe != nil {
			ps := e.pStat(e.phaseAt(s + h))
			ps.Messages++
			ps.Bits += int64(b)
		}
	}
}

// walkCvgSection walks the by-reference windows open at the snapshot
// barrier: each node's window with its contribution and combiner kind.
// Decoding restores them into record 0 of each node; resolutions are
// not carried (a window resolves only at its deadline).
func (e *engine) walkCvgSection(c *Snap) {
	var open []int
	if e.cv != nil && !c.dec {
		for i := range e.cv.node {
			if e.cv.node[i].open {
				open = append(open, i)
			}
		}
	}
	count := len(open)
	SnapUint(c, &count, e.n)
	if count == 0 || c.err != nil {
		return
	}
	cs := e.cvg()
	for j := 0; j < count && c.err == nil; j++ {
		var i int
		if !c.dec {
			i = open[j]
		}
		SnapUint(c, &i, e.n-1)
		nd := &cs.node[i]
		r := &cs.rec[i][cs.slot[i]]
		start, dl, root := r.tag-1, nd.dl, nd.root
		ports, own, kind, arg := nd.ports, nd.own, nd.comb.kind, nd.comb.arg
		SnapUint(c, &start, math.MaxInt64)
		SnapUint(c, &dl, int64(e.maxRounds))
		c.Bool(&root)
		SnapSlice(c, &ports, func(c *Snap, p *int) { SnapUint(c, p, e.g.Degree(i)-1) })
		c.Msg(&own)
		SnapUint(c, &kind, math.MaxUint16)
		c.Varint(&arg)
		if !c.dec || c.err != nil {
			continue
		}
		comb, known := combByKind[kind]
		comb.arg = arg
		switch {
		case !known:
			c.fail("window record %d has unknown combiner kind %d", j, kind)
		case start >= dl || start > int64(e.round)+1 || dl <= int64(e.round):
			c.fail("window record %d spans rounds %d..%d at round %d", j, start, dl, e.round)
		case own == nil:
			c.fail("window record %d has no contribution", j)
		case nd.open:
			c.fail("window record %d repeats node %d", j, i)
		default:
			*nd = cvNode{open: true, root: root, dl: dl, ports: ports, own: own, comb: comb}
			cs.rec[i][0].tag = start + 1
		}
	}
}
