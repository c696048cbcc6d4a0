package congest

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/graph"
	"repro/internal/obs"
)

// FaultBarrier is the faultpoint hook name the engine hits after every
// executed round barrier (after the periodic checkpoint, if any). Tests
// arm it to crash or slow the run at an exact barrier.
const FaultBarrier = "congest.barrier"

// Config configures a simulation run.
type Config struct {
	// Graph is the network to simulate. Required.
	Graph *graph.Graph
	// IDs are the CONGEST identifiers, one per node index. When nil, the
	// engine assigns a pseudorandom permutation of 1..n derived from Seed.
	IDs []int64
	// Seed drives all node-local randomness and the default ID assignment.
	Seed int64
	// BitBound is the maximum message size B. When 0, the engine uses
	// DefaultBitBound(n).
	BitBound int
	// MaxRounds aborts the run when exceeded (a safety net against
	// deadlocked or diverging programs). When 0, defaults to 4_000_000.
	// Round numbers can legitimately grow far past the executed-barrier
	// count: the engine fast-forwards over empty rounds, and schedules
	// with exponentially growing budgets sleep across billions of them.
	MaxRounds int
	// StopOnReject ends the run at the first barrier after some node
	// outputs VerdictReject. In distributed property testing a single
	// reject decides the global output, so testers use this to terminate
	// promptly once evidence is found (remaining nodes are shut down).
	StopOnReject bool
	// Workers is the number of goroutines that step due nodes inside a
	// round barrier, the engine loop included. 0 uses
	// runtime.GOMAXPROCS(0); 1 keeps the engine on one goroutine. Sends
	// only become deliverable at the next barrier, so stepping (and
	// parking each stepped node for its next wake) is data-parallel;
	// outboxes, terminations, and metrics are merged in node-index order
	// after the barrier, message-heavy barriers in parallel by disjoint
	// receiver shard, which keeps every mailbox's order and every
	// termination's place in that order. Results are byte-identical for
	// every Workers value (TestParallelEngineEquivalence, DESIGN.md §6,
	// §10). Runs that end in an error (node panic, bit-bound violation)
	// report the same error, but verdicts recorded in the failing round
	// by nodes after the failing one may differ between Workers values,
	// and so may the aborted round's message/bit counters and
	// undelivered mailboxes: error runs promise only the identical
	// error.
	Workers int
	// Cancel aborts the run when it becomes readable: the engine polls it
	// at every round barrier and ends the run with ErrCanceled. Pass a
	// context's Done() channel to make a simulation cancelable; nil (the
	// zero value) disables the check. Cancellation does not affect the
	// determinism of completed runs — a run that finishes before the
	// channel fires is byte-identical to an uncancelable one.
	Cancel <-chan struct{}
	// Deadline, when non-zero, aborts the run with ErrDeadlineExceeded
	// at the first round barrier past the wall-clock instant. Like
	// Cancel it never affects the determinism of runs that finish in
	// time.
	Deadline time.Time
	// Checkpoint asks the engine to snapshot its state periodically at
	// round barriers (see CheckpointConfig). The zero value disables
	// checkpointing.
	Checkpoint CheckpointConfig
	// Probe, when non-nil, enables per-phase attribution: programs
	// announce phases through StepAPI.PhaseEnter with IDs interned on
	// this probe, the engine folds announcements at every barrier
	// (deterministically, in due order), and Result.Phases reports the
	// accumulated PhaseBreakdown. nil (the default) allocates nothing
	// and costs one nil check per barrier; all deterministic Result
	// fields are byte-identical with or without a probe.
	Probe *obs.Probe
	// Trace, when non-nil, receives JSONL-able run events (phase
	// transitions, checkpoints, fast-forward windows, merge decisions,
	// aborts; see obs.Event). Emitted from the sequential engine loop
	// only, never from workers. nil disables tracing at the cost of a
	// nil check; tracing never affects the Result.
	Trace obs.TraceSink
	// Progress, when non-nil, is updated at every executed barrier with
	// the current round, barrier count, and phase; readers snapshot it
	// concurrently (the planard job API serves it as the live
	// `progress` object). nil disables the per-barrier store.
	Progress *obs.Progress
}

// DefaultBitBound is the default per-message bound: c*ceil(log2 n) bits
// with c = 48, honoring the CONGEST requirement of O(log n)-bit messages
// while leaving room for constant-length compound messages.
func DefaultBitBound(n int) int {
	b := 1
	for 1<<b < n {
		b++
	}
	return 48 * b
}

// Metrics aggregates model-level accounting for a run.
type Metrics struct {
	Rounds         int   // rounds executed (final barrier count)
	Messages       int64 // total messages delivered
	TotalBits      int64 // sum of message sizes
	MaxMessageBits int   // largest single message
	BitBound       int   // the enforced bound
	DroppedToDone  int64 // messages sent to already-terminated nodes
	// ModeledRounds accumulates the documented round cost of substituted
	// black-box subroutines (see DESIGN.md §3); reported alongside the
	// actually simulated rounds.
	ModeledRounds int64
}

// Result is the outcome of a run.
type Result struct {
	Verdicts []Verdict
	Metrics  Metrics
	// Phases is the per-phase attribution table, non-nil exactly when
	// the run was configured with Config.Probe. All columns except
	// WallNs are deterministic, and the Messages/Bits columns sum to
	// Metrics.Messages/Metrics.TotalBits.
	Phases obs.PhaseBreakdown
}

// Accepted reports whether every node accepted.
func (r *Result) Accepted() bool {
	for _, v := range r.Verdicts {
		if v != VerdictAccept {
			return false
		}
	}
	return true
}

// Rejected reports whether at least one node rejected.
func (r *Result) Rejected() bool {
	for _, v := range r.Verdicts {
		if v == VerdictReject {
			return true
		}
	}
	return false
}

// RejectCount returns the number of rejecting nodes.
func (r *Result) RejectCount() int {
	c := 0
	for _, v := range r.Verdicts {
		if v == VerdictReject {
			c++
		}
	}
	return c
}

type outMsg struct {
	port int
	msg  Message
}

// nodeHot is the per-node dispatch cluster: exactly the state every
// node wake touches, packed into one 64-byte cache line (16-byte
// interface + two 24-byte slice headers). Stepping a node — whether in
// a dense streaming barrier or a sparse frontier wake — loads this one
// line; routing a message to the node touches the same line its own
// next wake needs (DESIGN.md §8).
type nodeHot struct {
	prog    StepProgram // current program
	inbox   []Inbound   // buffer handed to Step at the current wake (reused)
	mailbox []Inbound   // deliverable at the next barrier (reused buffer)
}

type nodePhase uint8

const (
	phaseWaiting nodePhase = iota // parked until deadline or mail
	phaseDone
)

// ErrCanceled is the error reported (wrapped with round context) when a
// run is aborted through Config.Cancel. Test with errors.Is.
var ErrCanceled = errors.New("congest: run canceled")

// RunStep executes the simulation with one StepProgram per node, produced
// by progs (called once per node index before the run starts). This is
// the run-to-completion execution model: a single engine loop drives
// every node, with no goroutine per node and no channel operations. It
// returns an error when a node program panics or the round limit is
// exceeded.
func RunStep(cfg Config, progs func(node int) StepProgram) (*Result, error) {
	g := cfg.Graph
	n := g.N()
	if n == 0 {
		return &Result{}, nil
	}
	ids := cfg.IDs
	if ids == nil {
		rng := rand.New(rand.NewSource(cfg.Seed ^ 0x1D5))
		perm := rng.Perm(n)
		ids = make([]int64, n)
		for i, p := range perm {
			ids[i] = int64(p + 1)
		}
	} else if len(ids) != n {
		return nil, fmt.Errorf("congest: %d ids for %d nodes", len(ids), n)
	}
	bitBound := cfg.BitBound
	if bitBound == 0 {
		bitBound = DefaultBitBound(n)
	}
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = 4_000_000
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	eng := &engine{
		g:            g,
		revPort:      g.RevPorts(),
		ids:          ids,
		n:            n,
		seed:         cfg.Seed,
		phase:        make([]nodePhase, n),
		deadline:     make([]int64, n),
		heapDl:       make([]int64, n),
		cal:          newCalendar(),
		hot:          make([]nodeHot, n),
		outbox:       make([][]outMsg, n),
		rejFlag:      make([]bool, n),
		modeled:      make([]int64, n),
		charged:      make([]charge, n),
		opened:       make([]uint8, n),
		opKind:       make([]uint8, n),
		rngs:         make([]*nodeRand, n),
		apis:         make([]StepAPI, n),
		verdicts:     make([]Verdict, n),
		bitBound:     bitBound,
		maxRounds:    maxRounds,
		stopOnRej:    cfg.StopOnReject,
		workers:      workers,
		cancel:       cfg.Cancel,
		ckpt:         cfg.Checkpoint,
		wallDeadline: cfg.Deadline,
	}
	eng.m.BitBound = bitBound
	sentWords := 0
	for i := 0; i < n; i++ {
		sentWords += (g.Degree(i) + 63) / 64
	}
	eng.sentBits = make([]uint64, sentWords)
	off := int32(0)
	for i := 0; i < n; i++ {
		deg := g.Degree(i)
		eng.apis[i] = StepAPI{
			eng:     eng,
			node:    int32(i),
			degree:  int32(deg),
			sentOff: off,
			id:      ids[i],
		}
		off += int32((deg + 63) / 64)
		eng.hot[i].prog = progs(i)
	}

	eng.alive = n
	eng.initObs(cfg)
	due := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		due = append(due, int32(i)) // round 0: every node wakes, empty inbox
	}
	eng.run(due, false)
	return eng.finish()
}

// finish ends a run after the scheduler loop returned: it stops the
// worker pool, charges the traffic of elided and by-reference windows
// still open at the final round (elide.go, converge.go), and assembles
// the Result.
func (e *engine) finish() (*Result, error) {
	e.shutdown()
	e.foldOpenWindows()
	e.foldOpenCvg()
	e.m.Rounds = e.round
	for i := range e.modeled {
		e.m.ModeledRounds += e.modeled[i]
	}
	return &Result{Verdicts: e.verdicts, Metrics: e.m, Phases: e.finishObs()}, e.runErr
}

// engine is the scheduler core. The per-node hot state is laid out as
// struct-of-arrays: each field the scheduler or a barrier scan touches
// lives in its own dense slab indexed by node id, so walking all due
// nodes streams through contiguous cache lines instead of chasing one
// heap object per node (DESIGN.md §8). All slabs are owned by the engine
// loop between barriers; inside a barrier, worker goroutines only read
// and write the slab entries of the nodes in the blocks they claimed
// (distinct indices, so the compute phase is race-free) plus those
// blocks' park lists and their own fold slot, and the barrier join
// establishes the happens-before edges back to the engine loop.
type engine struct {
	g       *graph.Graph
	revPort [][]int32
	ids     []int64
	n       int
	seed    int64

	// Hot per-node slabs, indexed by node id. The scan-heavy scalar
	// fields (phase, deadline, heapDl) are struct-of-arrays so barrier
	// scans stream dense cache lines; the dispatch cluster — everything
	// a single node wake must touch — is one 64-byte nodeHot line per
	// node, so a sparse wake costs one line instead of one per slab.
	// See DESIGN.md §8 for the layout rationale and field sizes.
	phase    []nodePhase // parked/done; the barrier scan's hottest byte
	deadline []int64     // absolute round to wake by (while waiting)
	heapDl   []int64     // wake round of the node's newest calendar entry (0: none)
	hot      []nodeHot   // dispatch cluster: program, inbox, mailbox
	outbox   [][]outMsg  // sends queued by the current Step call
	sentBits []uint64    // flat dup-send bitsets; node i owns words [apis[i].sentOff, +⌈deg/64⌉)
	rejFlag  []bool      // node ever output VerdictReject (merged at barriers)
	modeled  []int64     // per-node modeled-round charges (summed at run end)
	rngs     []*nodeRand // lazily created on first StepAPI.Rand call (rng.go)
	apis     []StepAPI   // per-node API handles (stable addresses)
	verdicts []Verdict

	m            Metrics
	round        int
	barriers     int64 // executed round barriers (checkpoint cadence)
	bitBound     int
	maxRounds    int
	stopOnRej    bool
	rejected     bool // some node rejected (StopOnReject trigger)
	cancel       <-chan struct{}
	wallDeadline time.Time        // Config.Deadline (zero: none)
	ckpt         CheckpointConfig // periodic snapshots (zero: none)
	ckptOff      bool             // ErrNotSnapshottable seen; stop trying
	runErr       error

	// Event-driven wake tracking: no O(n) scans at round barriers.
	alive   int      // nodes not yet done
	cal     calendar // parked nodes waking after round+1 (calendar.go)
	mailDue []int32  // nodes whose mailbox went non-empty this round
	queued  []uint64 // bitset: already collected for the current barrier
	nrList  []int32  // nodes parked for exactly round+1 (ascending order)
	extra   []int32  // scratch: mail/calendar wakes of the current barrier

	// Stepping a barrier files every parked node into the lists of its
	// due-list block (blocks[:nblk]); the engine loop then appends them
	// to nrList and the calendar in block order (flushParked).
	blocks []blockPark
	nblk   int

	// Barrier workers: every barrier is stepped block by block by the
	// engine loop (as worker 0) and, when it has more than one block,
	// up to workers-1 persistent goroutines, which claim blocks of pdue
	// from nextBlock in ascending order (stepBlocks).
	workers   int
	pool      int // started worker goroutines
	workCh    chan workItem
	doneCh    chan struct{}
	pdue      []int32      // the current barrier's due list
	blockSize int          // nodes per block of pdue
	nextBlock atomic.Int32 // next unclaimed block of pdue
	wAcc      []workerAcc  // per worker: compute-phase folds and panic
	wMerge    []mergeState // per worker: merge-shard accumulators
	tPooled   time.Time    // trace: end of the last pooled barrier

	// charged is the per-node slab of traffic a Step accounted for
	// without routing it: StepAPI.ChargeTraffic (Stage I's fixed-point
	// fast-forward) and the elided fixed-content windows of elide.go.
	// The barrier merge folds it into Metrics in due order, where routed
	// traffic is counted, so charges land in the same barrier, phase and
	// snapshot header as the messages they stand for (DESIGN.md §10).
	charged []charge

	// el is the run's elided-window state (elide.go), allocated by the
	// first window through elOnce; cv, the by-reference convergecast
	// state (converge.go), likewise through cvOnce.
	el     *elideState
	elOnce sync.Once
	cv     *cvgState
	cvOnce sync.Once
	opened []uint8 // per node: the window kinds it opened in its current step

	// The tree ops (tree_step.go): opKind is each node's open op (0:
	// none); pay holds a root's payload, allocated by the first root
	// through payOnce; lit holds the pending literal sends of over-bound
	// stream messages, and lits counts them, so a wake checks for one
	// only while one is pending.
	opKind  []uint8
	pay     []opPayload
	payOnce sync.Once
	litMu   sync.Mutex
	lit     map[int32]litSend
	lits    atomic.Int32

	// Observability (internal/obs). All slabs below are nil unless
	// Config.Probe is set; the disabled fast path is a nil check per
	// barrier. pReq is the per-node phase-announcement slab: a node's
	// Step writes only its own slot (race-free under parallel workers)
	// and the engine loop folds announcements sequentially, in due
	// order, at the barrier — so attribution is deterministic for every
	// Workers value. pWin* accumulate ChargeTraffic calls per node
	// between barriers for per-phase fast-forward accounting. pAdj holds
	// the elided relays a node charged this barrier whose literal send
	// rounds fall before it, by the phase current at those rounds
	// (elide.go); pMarks is the run's phase history that decides it.
	probe      *obs.Probe
	trace      obs.TraceSink
	progress   *obs.Progress
	pReq       []int32         // per-node announced phase (0: none)
	pWinMsgs   []int64         // per-node charged msgs since last barrier
	pWinBits   []int64         // per-node charged bits since last barrier
	pWinCnt    []int64         // per-node ChargeTraffic calls since last barrier
	pAdj       [][]phaseCharge // per-node earlier-round relays charged this barrier
	pMarks     []phaseMark     // phase switches, in round order
	pStats     []obs.PhaseStat // per-phase accumulators, indexed by PhaseID
	pPhase     int32           // current phase id (0: "run")
	pLastMsgs  int64           // m.Messages at the last fold
	pLastBits  int64           // m.TotalBits at the last fold
	pLastStamp time.Time       // wall stamp of the last fold
	pSeg       obs.PhaseStat   // trace: accumulator snapshot at segment start
	runStart   time.Time       // trace: wall zero for run_end
}

// workItem tells a worker what to do for the current barrier: claim
// and step blocks of the due list (stepBlocks), or, in the merge phase
// (merge=true), route the sends of the due positions below limit that
// are addressed into the disjoint receiver-id range [shardLo, shardHi)
// (mergeShard, DESIGN.md §10).
type workItem struct {
	wi      int // worker slot for fold/panic/event reporting
	merge   bool
	limit   int
	shardLo int32
	shardHi int32
}

// blockPark is what stepping one block of the due list leaves for the
// engine loop, every list in due (ascending node) order: the nodes
// parked for round+1, the nodes parked for later rounds grouped into
// runs of equal wake round, the due positions of the nodes that sent or
// finished (position<<1 | 1 when the node returned Done), when the run
// has a probe, the nodes that left attribution state for foldProbe, and
// the nodes that opened an elided or a by-reference window.
// The merge tails and the probe fold visit only those entries.
type blockPark struct {
	nr     []int32
	later  []int32
	runs   []calRun
	sof    []int32
	probed []int32
	opened []int32 // nodes that opened an elided or by-reference window
}

// workerAcc is one worker's compute-phase fold: its nodes' queued
// messages, charged traffic and reject flags, and the due position of
// its panic (-1: none). Written once, when the worker's claim loop ends.
type workerAcc struct {
	msgs     int
	chg      charge
	rejected bool
	panPos   int
	panVal   any
}

// Merge-phase event kinds: the first (due position, outbox index) event
// decides the run's error, exactly as the sequential merge would.
const (
	evtNone uint8 = iota
	evtBound
	evtPanic
)

// mergeState is one worker's private accumulator for a merge shard:
// shard-local metric counters and retirements, the shard's mailDue
// fragment, and the earliest abort event the worker observed. Workers
// write only their own entry; the engine loop folds all entries after
// the join.
type mergeState struct {
	msgs    int64
	bits    int64
	dropped int64
	maxBits int
	retired int     // nodes of the shard that returned Done
	mail    []int32 // receivers whose mailbox went empty→non-empty
	evtPos  int     // due position of the first event (-1: none)
	evtMsg  int     // outbox index of the first event
	evtKind uint8
	evtBits int // evtBound: the offending message size
	evtVal  any // evtPanic: the recovered value
}

// minParallelDue is the smallest block of the due list a worker
// claims: stepping a handful of nodes costs less than handing them to
// another goroutine, so a barrier of at most minParallelDue due nodes
// is one block that the engine loop steps itself.
const minParallelDue = 64

// run is the scheduler loop: step every due node (in index order, which
// keeps inboxes sorted by sender without any sorting), route its sends,
// then fast-forward the global round to the next deadline or delivery.
// Every barrier is stepped and merged by step; a panic from a step
// program or a Message.Bits implementation is caught there and decides
// the run error, and the recover here is the backstop for the engine
// loop's own code.
//
// A restored run (ResumeStep) enters with resumed=true and an empty due
// list: the snapshot was taken right after a barrier's steps, so the
// first iteration skips straight to the post-barrier checks and the
// next-round computation, re-joining the original run's barrier sequence
// exactly.
func (e *engine) run(due []int32, resumed bool) {
	defer func() {
		if r := recover(); r != nil {
			e.runErr = fmt.Errorf("congest: engine panicked at round %d: %v", e.round, r)
		}
	}()
	e.queued = make([]uint64, (e.n+63)/64)
	for {
		if !resumed {
			if e.cancel != nil {
				select {
				case <-e.cancel:
					e.runErr = fmt.Errorf("%w at round %d", ErrCanceled, e.round)
					return
				default:
				}
			}
			if !e.step(due) {
				return // fatal error; later nodes' sends stay unrouted
			}
			// The barrier is complete: outboxes are drained and the
			// engine is quiescent. This is the only point where a
			// snapshot, an injected fault, or a wall-clock deadline can
			// cut the run — all three preserve the invariant that a run
			// either finished a barrier entirely or not at all.
			e.barriers++
			e.flushParked()
			if e.probe != nil {
				e.foldProbe(len(due))
			}
			if e.progress != nil {
				e.progress.Set(int64(e.round), e.barriers, obs.PhaseID(e.pPhase))
			}
			if e.ckpt.Sink != nil && !e.ckptOff && e.ckpt.EveryBarriers > 0 &&
				e.barriers%int64(e.ckpt.EveryBarriers) == 0 {
				data, err := e.encodeSnapshot()
				if err == nil {
					err = e.ckpt.Sink(e.round, data)
					if err == nil && e.trace != nil {
						e.trace.Emit(obs.Event{Event: "checkpoint", Round: int64(e.round),
							Barrier: e.barriers, Bytes: int64(len(data))})
					}
				}
				if err != nil {
					if errors.Is(err, ErrNotSnapshottable) {
						e.ckptOff = true
					}
					if e.ckpt.OnError != nil {
						e.ckpt.OnError(e.round, err)
					}
				}
			}
			if err := faultpoint.Hit(FaultBarrier); err != nil {
				e.runErr = fmt.Errorf("congest: fault injected at round %d: %w", e.round, err)
				return
			}
			if !e.wallDeadline.IsZero() && time.Now().After(e.wallDeadline) {
				e.runErr = fmt.Errorf("%w at round %d", ErrDeadlineExceeded, e.round)
				return
			}
		}
		resumed = false
		if e.stopOnRej && e.rejected {
			return
		}
		if e.alive == 0 {
			return
		}
		mail := e.mailWaiting()
		next := e.nextRound(mail)
		if next == -1 {
			// Unreachable: every live waiting node is either in nrList
			// or has a live calendar entry.
			return
		}
		if next > int64(e.maxRounds) {
			e.runErr = fmt.Errorf("congest: exceeded %d rounds", e.maxRounds)
			return
		}
		e.round = int(next) // fast-forward over empty rounds
		due = e.collectDue(due, mail)
	}
}

// mailWaiting reports whether mail delivered at this barrier wakes a
// node (its recipient is still waiting).
func (e *engine) mailWaiting() bool {
	for _, i := range e.mailDue {
		if e.phase[i] == phaseWaiting {
			return true
		}
	}
	return false
}

// nextRound finds the next event round once all nodes are parked. Nodes
// parked for the immediately next round sit in nrList; mail (mail set)
// wakes its recipient one round after delivery; otherwise the next
// event is the earliest calendar round with a live entry. Stale entries
// — nodes that were woken by mail and re-parked elsewhere, or finished
// — are dropped from the front of the earliest bucket, each exactly
// once, so the search is amortized O(1) per entry. It returns -1 when
// nothing is parked.
func (e *engine) nextRound(mail bool) int64 {
	if len(e.nrList) > 0 || mail {
		return int64(e.round) + 1
	}
	for {
		r, b := e.cal.min()
		if b == nil {
			return -1
		}
		for ; b.head < len(b.nodes); b.head++ {
			i := b.nodes[b.head]
			if e.phase[i] == phaseWaiting && e.deadline[i] == r {
				return r
			}
			if e.heapDl[i] == r {
				e.heapDl[i] = 0
			}
		}
		e.cal.popMin(b.nodes[:0]) // every entry was stale
	}
}

// collectDue builds the ascending due list of the new current round.
// When the wakes come from one source — only the round+1 list, or only
// a calendar bucket that the previous barrier filled by itself (every
// entry live, ascending, no duplicates) — that list is the due list as
// it stands. Otherwise the round+1 list, the mail wakes and the live
// entries of this round's bucket are merged through the queued bitset.
// Inboxes are swapped in by the step paths, not here.
func (e *engine) collectDue(due []int32, mail bool) []int32 {
	round := int64(e.round)
	r, b := e.cal.min()
	if b != nil && r != round {
		b = nil // the earliest bucket is for a later round
	}
	if !mail {
		switch {
		case b == nil:
			e.mailDue = e.mailDue[:0]
			due, e.nrList = e.nrList, due[:0]
			return due
		case len(e.nrList) == 0 && b.fill == e.barriers && b.head == 0:
			return e.cal.popMin(due)
		}
	}
	e.extra = e.extra[:0]
	for _, i := range e.nrList {
		e.queued[i>>6] |= 1 << (i & 63)
	}
	for _, i := range e.mailDue {
		if e.phase[i] == phaseWaiting && e.queued[i>>6]&(1<<(i&63)) == 0 {
			e.queued[i>>6] |= 1 << (i & 63)
			e.extra = append(e.extra, i)
		}
	}
	e.mailDue = e.mailDue[:0]
	if b != nil {
		// Only the round's nodes that are still waiting for exactly
		// this deadline are due; the rest are stale or already queued.
		for _, i := range b.nodes[b.head:] {
			if e.phase[i] == phaseWaiting && e.deadline[i] == round &&
				e.queued[i>>6]&(1<<(i&63)) == 0 {
				e.queued[i>>6] |= 1 << (i & 63)
				e.extra = append(e.extra, i)
			}
		}
		e.cal.popMin(b.nodes[:0])
	}
	if k := len(e.nrList) + len(e.extra); len(e.extra) > 0 && 8*k >= len(e.queued) {
		// Extracting ascending ids from the queued bitset costs one
		// word per 64 nodes plus one step per due node, which beats
		// sorting the mail/calendar wakes unless the barrier is very
		// sparse (fewer than one due node per 512).
		due = due[:0]
		for w, bw := range e.queued {
			if bw == 0 {
				continue
			}
			e.queued[w] = 0
			for bw != 0 {
				due = append(due, int32(w<<6+bits.TrailingZeros64(bw)))
				bw &= bw - 1
			}
		}
	} else {
		slices.Sort(e.extra)
		due = mergeAscending(due[:0], e.nrList, e.extra)
		for _, i := range due {
			e.queued[i>>6] &^= 1 << (i & 63)
		}
	}
	e.nrList = e.nrList[:0]
	return due
}

// mergeAscending merges two disjoint ascending lists into dst.
func mergeAscending(dst, a, b []int32) []int32 {
	if len(b) == 0 {
		return append(dst, a...)
	}
	if len(a) == 0 {
		return append(dst, b...)
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// ensureBlocks sizes the per-block park lists for nb blocks and makes
// them the current barrier's.
func (e *engine) ensureBlocks(nb int) {
	for len(e.blocks) < nb {
		e.blocks = append(e.blocks, blockPark{})
	}
	e.nblk = nb
}

// resetBlock empties block b's lists, keeping their buffers.
func (e *engine) resetBlock(b int) *blockPark {
	p := &e.blocks[b]
	*p = blockPark{nr: p.nr[:0], later: p.later[:0], runs: p.runs[:0], sof: p.sof[:0], probed: p.probed[:0], opened: p.opened[:0]}
	return p
}

// flushParked moves the parks of the barrier just stepped from the
// block lists into nrList and the calendar, in block (= due) order, so
// nrList stays ascending and a calendar bucket filled by this barrier
// alone is ascending too. The cost is one append per block and per run
// of equal wake rounds, not one step per parked node.
func (e *engine) flushParked() {
	for b := 0; b < e.nblk; b++ {
		bp := &e.blocks[b]
		if b == 0 && len(e.nrList) == 0 {
			e.nrList, bp.nr = bp.nr, e.nrList
		} else {
			e.nrList = append(e.nrList, bp.nr...)
		}
		off := int32(0)
		for _, r := range bp.runs {
			e.cal.add(r.round, bp.later[off:off+r.n], e.barriers)
			off += r.n
		}
	}
}

// park files waiting node i after its Step returned st: it writes the
// node's deadline and appends it to p's round+1 list, or to p's later
// list unless the node already has a calendar entry for that round (a
// node woken by mail every round while sleeping toward a fixed deadline
// would otherwise file one duplicate per round). This is the one
// parking rule; Done is applied by the merge phase (mergeShard).
func (e *engine) park(p *blockPark, i int32, st Status) {
	d := st.wakeRound(e.round)
	e.deadline[i] = d
	if d == int64(e.round)+1 {
		p.nr = append(p.nr, i)
		return
	}
	if e.heapDl[i] == d {
		return
	}
	e.heapDl[i] = d
	p.later = append(p.later, i)
	if k := len(p.runs) - 1; k >= 0 && p.runs[k].round == d {
		p.runs[k].n++
	} else {
		p.runs = append(p.runs, calRun{round: d, n: 1})
	}
}

// step runs one barrier. The due list is cut into blocks that the
// engine loop (as worker 0) and up to workers-1 pool goroutines claim
// in ascending order; each worker swaps in, steps and parks its blocks'
// nodes (compute phase: only those nodes' slab entries are touched) and
// folds their charges and reject flags privately. A single-worker run
// steps every barrier as one block, and so does a pool for a barrier
// too small to split, both on the engine loop with no dispatch. The
// merge phase then routes the outboxes and applies Done in due order
// (merge), so Results are byte-identical for every Workers value. It
// reports false when the run must end.
func (e *engine) step(due []int32) bool {
	timed := e.trace != nil
	var t0, t1, t2 time.Time
	if timed {
		t0 = time.Now()
	}
	bs := max(minParallelDue, len(due)/(8*e.workers))
	if e.workers == 1 {
		bs = max(bs, len(due))
	}
	nb := (len(due) + bs - 1) / bs
	w := min(e.workers, nb)
	if e.el != nil {
		e.el.shapeAt = e.el.shape.Load()
	}
	e.ensurePool(w - 1)
	e.ensureBlocks(nb)
	e.pdue, e.blockSize = due, bs
	e.nextBlock.Store(0)
	for wi := 1; wi < w; wi++ {
		e.workCh <- workItem{wi: wi}
	}
	e.stepBlocks(0)
	for wi := 1; wi < w; wi++ {
		<-e.doneCh
	}
	e.commitOpened()
	// Blocks are claimed in ascending order and a worker stops claiming
	// at its own panic, so every position below the earliest panic was
	// stepped and parked.
	panPos, totalMsgs := -1, 0
	var panVal any
	for wi := 0; wi < w; wi++ {
		a := &e.wAcc[wi]
		if a.panPos >= 0 && (panPos == -1 || a.panPos < panPos) {
			panPos, panVal = a.panPos, a.panVal
		}
		totalMsgs += a.msgs
		if a.chg.msgs != 0 {
			e.foldCharge(&a.chg)
		}
		if a.rejected {
			e.rejected = true
		}
	}
	if timed {
		t1 = time.Now()
	}
	// Message-heavy barriers merge by receiver shard on the pool; the
	// rest merge on the engine loop as one shard (DESIGN.md §10). A
	// compute-phase panic limits the merge to the positions before it,
	// and so does a by-reference up-message above the bit bound that the
	// relay sends at this round (converge.go); one it sends earlier has
	// already ended the relay's run.
	mw := max(1, min(e.workers, totalMsgs/minShardMsgs))
	limit := len(due)
	if panPos >= 0 {
		limit = panPos
	}
	var viol error
	if e.cv != nil && (panPos >= 0 || e.cv.viol) {
		var v int32
		var stamp int64
		if viol, v, stamp = e.cvViolation(); viol != nil {
			if stamp < int64(e.round) {
				e.runErr = viol
				return false
			}
			if pos := sort.Search(len(due), func(k int) bool { return due[k] >= v }); pos < limit {
				limit, panPos = pos, -1
			} else {
				viol = nil
			}
		}
	}
	ok := e.merge(due, limit, mw)
	if timed {
		t2 = time.Now()
	}
	if !ok {
		if e.cv != nil {
			if err, _, stamp := e.cvViolation(); err != nil && stamp < int64(e.round) {
				e.runErr = err
			}
		}
		return false
	}
	if viol != nil {
		e.runErr = viol
		return false
	}
	if panPos >= 0 {
		// The sends of the earlier nodes were routed (a bit-bound
		// violation among them decided first); now the first panicking
		// node in due order decides, and the sends of all later due
		// nodes stay unrouted.
		i := due[panPos]
		e.runErr = fmt.Errorf("congest: node %d (id %d) panicked at round %d: %v",
			int(i), e.ids[i], e.round, panVal)
		e.phase[i] = phaseDone
		return false
	}
	// The senders' per-round send state is cleared once every shard has
	// read their outboxes.
	for b := 0; b < e.nblk; b++ {
		for _, s := range e.blocks[b].sof {
			e.apis[due[s>>1]].clearRound()
		}
	}
	if timed && w > 1 {
		// compute and merge are the pooled phases' walls; serial is the
		// engine loop's own time since the previous pooled barrier ended.
		kind, shards, mergeEnd := "sequential", 0, t1
		if mw > 1 {
			kind, shards, mergeEnd = "sharded", mw, t2
		}
		end := time.Now()
		start := e.tPooled
		if start.IsZero() {
			start = e.runStart
		}
		e.trace.Emit(obs.Event{Event: "merge", Round: int64(e.round), Barrier: e.barriers,
			Phase: e.phaseName(e.pPhase), Merge: kind, Shards: int64(shards), Messages: int64(totalMsgs),
			ComputeNs: t1.Sub(t0).Nanoseconds(), MergeNs: mergeEnd.Sub(t1).Nanoseconds(),
			SerialNs: t0.Sub(start).Nanoseconds() + end.Sub(mergeEnd).Nanoseconds()})
		e.tPooled = end
	}
	return true
}

// stepBlocks is one worker's compute phase: it claims blocks of pdue in
// ascending order until none is left and, for each node, swaps its
// inbox in, steps it, and parks it into the block's lists. Routing only
// starts after the join, so the swap at step time captures exactly the
// mail delivered at the previous barrier. The block's lists are built
// in locals and stored when the block ends, so workers never write
// neighbouring list headers. A panic ends the worker's claim loop and is
// recorded with its due position; the block's lists up to it are kept
// for the merge that routes the sends of the earlier positions.
func (e *engine) stepBlocks(wi int) {
	a := &e.wAcc[wi]
	due := e.pdue
	var (
		msgs int
		chg  charge
		rej  bool
		k    int
		bp   *blockPark
		p    blockPark
	)
	a.panPos = -1
	probed := e.probe != nil
	defer func() {
		a.msgs, a.chg, a.rejected = msgs, chg, rej
		if r := recover(); r != nil {
			a.panPos, a.panVal = k, r
			*bp = p
		}
	}()
	for {
		lo := int(e.nextBlock.Add(1)-1) * e.blockSize
		if lo >= len(due) {
			return
		}
		hi := min(lo+e.blockSize, len(due))
		bp = e.resetBlock(lo / e.blockSize)
		p = *bp
		for k = lo; k < hi; k++ {
			i := due[k]
			if h := &e.hot[i]; len(h.mailbox) > 0 || len(h.inbox) > 0 {
				h.inbox, h.mailbox = h.mailbox, h.inbox[:0]
			}
			st := e.computeNode(int(i))
			if probed && e.probeTouched(i) {
				p.probed = append(p.probed, i)
			}
			if e.opened[i] != 0 {
				p.opened = append(p.opened, i)
			}
			sent := len(e.outbox[i])
			msgs += sent
			if c := &e.charged[i]; c.msgs != 0 {
				chg.add(c.msgs, c.bits, c.max)
				*c = charge{}
			}
			if e.rejFlag[i] {
				rej = true
			}
			if st.kind == statusDone {
				p.sof = append(p.sof, int32(k)<<1|1)
				continue
			}
			if sent > 0 {
				p.sof = append(p.sof, int32(k)<<1)
			}
			e.park(&p, i, st)
		}
		*bp = p
	}
}

// minShardMsgs is the minimum number of queued messages per merge
// shard: below it, shard workers would spend more time scanning
// outboxes for other shards' traffic than routing their own, so a
// barrier with fewer than 2·minShardMsgs queued messages merges as one
// shard on the engine loop.
const minShardMsgs = 1024

// merge is the merge phase of one barrier: it routes the sends of the
// due positions below limit and applies their Dones. The receiver id
// space [0, n) is cut into mw contiguous shards and each worker (the
// engine loop taking shard 0, and with mw = 1 the only one) routes, in
// due order, exactly the messages addressed into its shard and retires
// the finished nodes of its shard. Shards are disjoint, so every
// mailbox and every in-barrier phase write has a single writer, and
// each worker visits senders (and each sender's outbox) in due order,
// so per-mailbox append order — and with it the sorted-by-sender
// invariant — and the drop rule are those of a sequential loop by
// construction. Metric counters, retirements and the mailDue list are
// accumulated per worker and folded after the join; mailDue order
// across shards is irrelevant (its consumers filter by phase and dedup
// through the queued bitset). See DESIGN.md §10 for the full
// determinism argument. It reports false when the run must end.
func (e *engine) merge(due []int32, limit, mw int) bool {
	e.ensurePool(mw - 1)
	shard := (e.n + mw - 1) / mw
	item := func(wi int) workItem {
		return workItem{wi: wi, merge: true, limit: limit,
			shardLo: int32(wi * shard), shardHi: int32(min((wi+1)*shard, e.n))}
	}
	for wi := 1; wi < mw; wi++ {
		e.workCh <- item(wi)
	}
	e.mergeShard(item(0))
	for wi := 1; wi < mw; wi++ {
		<-e.doneCh
	}
	// Each worker stopped at its shard's first abort event in
	// (due position, outbox index) order, so the minimum across shards
	// is the event a sequential loop would have hit first.
	evtWi := -1
	for wi := 0; wi < mw; wi++ {
		st := &e.wMerge[wi]
		e.alive -= st.retired
		if st.evtKind == evtNone {
			continue
		}
		if evtWi == -1 || st.evtPos < e.wMerge[evtWi].evtPos ||
			(st.evtPos == e.wMerge[evtWi].evtPos && st.evtMsg < e.wMerge[evtWi].evtMsg) {
			evtWi = wi
		}
	}
	if evtWi >= 0 {
		st := &e.wMerge[evtWi]
		i := int(due[st.evtPos])
		if st.evtKind == evtBound {
			e.runErr = fmt.Errorf("congest: node %d sent %d-bit message, bound is %d",
				i, st.evtBits, e.bitBound)
		} else {
			e.runErr = fmt.Errorf("congest: node %d (id %d) panicked at round %d: %v",
				i, e.ids[i], e.round, st.evtVal)
			e.phase[i] = phaseDone
		}
		return false
	}
	for wi := 0; wi < mw; wi++ {
		st := &e.wMerge[wi]
		e.m.Messages += st.msgs
		e.m.TotalBits += st.bits
		e.m.DroppedToDone += st.dropped
		if st.maxBits > e.m.MaxMessageBits {
			e.m.MaxMessageBits = st.maxBits
		}
		e.mailDue = append(e.mailDue, st.mail...)
	}
	return true
}

// mergeShard routes one receiver shard: it walks the sent-or-finished
// positions below limit in due order, delivers every queued message
// whose receiver falls in [shardLo, shardHi), and then, when the node
// at the position returned Done and lies in the shard, retires it. A
// message is dropped iff its receiver is done when the walk reaches its
// sender: done before the barrier, or retired at an earlier due
// position. The worker keeps shard-local counters and stops at the
// shard's first abort event (bit-bound violation, or a panicking
// Message.Bits implementation — the only foreign code on this path).
func (e *engine) mergeShard(wc workItem) {
	st := &e.wMerge[wc.wi]
	due := e.pdue
	var msgs, totalBits, dropped int64
	maxBits, retired := 0, 0
	mail := st.mail[:0]
	curPos, curMsg := 0, 0
	evtPos, evtMsg := -1, 0
	evtKind, evtBits := evtNone, 0
	defer func() {
		st.msgs, st.bits, st.dropped, st.maxBits, st.retired = msgs, totalBits, dropped, maxBits, retired
		st.mail = mail
		st.evtPos, st.evtMsg, st.evtKind, st.evtBits = evtPos, evtMsg, evtKind, evtBits
		if r := recover(); r != nil {
			st.evtPos, st.evtMsg, st.evtKind, st.evtVal = curPos, curMsg, evtPanic, r
		}
	}()
	for b := 0; b < e.nblk; b++ {
		for _, s := range e.blocks[b].sof {
			k := int(s >> 1)
			if k >= wc.limit {
				return
			}
			i := due[k]
			if ob := e.outbox[i]; len(ob) > 0 {
				nbrs := e.g.Neighbors(int(i))
				rp := e.revPort[i]
				for mi := range ob {
					om := &ob[mi]
					to := nbrs[om.port]
					if to < wc.shardLo || to >= wc.shardHi {
						continue
					}
					curPos, curMsg = k, mi
					bits := om.msg.Bits()
					if bits > e.bitBound {
						evtPos, evtMsg, evtKind, evtBits = k, mi, evtBound, bits
						return
					}
					if e.phase[to] == phaseDone {
						dropped++
						continue
					}
					th := &e.hot[to]
					if len(th.mailbox) == 0 {
						mail = append(mail, to)
					}
					th.mailbox = append(th.mailbox, Inbound{
						Port: int(rp[om.port]),
						From: int(i),
						Msg:  om.msg,
					})
					msgs++
					totalBits += int64(bits)
					if bits > maxBits {
						maxBits = bits
					}
				}
			}
			if s&1 != 0 && i >= wc.shardLo && i < wc.shardHi {
				e.phase[i] = phaseDone
				retired++
			}
		}
	}
}

// ensurePool lazily starts up to w worker goroutines (the engine loop
// itself is worker 0). Workers exit when workCh closes (engine
// shutdown).
func (e *engine) ensurePool(w int) {
	if e.wAcc == nil {
		// One item per worker per phase, so dispatching never blocks.
		e.workCh = make(chan workItem, e.workers)
		e.doneCh = make(chan struct{}, e.workers)
		e.wAcc = make([]workerAcc, e.workers)
		e.wMerge = make([]mergeState, e.workers)
	}
	for e.pool < w {
		go e.workerLoop()
		e.pool++
	}
}

func (e *engine) workerLoop() {
	for wc := range e.workCh {
		if wc.merge {
			e.mergeShard(wc)
		} else {
			e.stepBlocks(wc.wi)
		}
		e.doneCh <- struct{}{}
	}
}

// Window kinds a node opens (engine.opened).
const (
	openedElide uint8 = 1 << iota // elide.go
	openedCvg                     // converge.go
)

// commitOpened makes the windows opened in the barrier just stepped
// their nodes' latest. It runs on the engine loop after the join, so
// within a barrier a node's latest window never changes: every reader
// reads a record that no write touches (elide.go, converge.go).
func (e *engine) commitOpened() {
	for b := 0; b < e.nblk; b++ {
		for _, i := range e.blocks[b].opened {
			if e.opened[i]&openedElide != 0 {
				e.el.latest[i] ^= 1
			}
			if e.opened[i]&openedCvg != 0 {
				e.cv.slot[i] ^= 1
			}
			e.opened[i] = 0
		}
	}
}

// computeNode advances node i by one round: it runs the node's Step (and
// any same-round BecomeStep handovers) and returns the resulting
// status. Mail reaching a node inside a tree op fails it, and the wake
// of an over-bound stream's literal round sends that message for the
// node (tree_step.go). It touches only node i's slab entries, so
// distinct nodes' computes may run concurrently; all shared effects
// (routing, Done, metrics) happen on the engine loop.
func (e *engine) computeNode(i int) Status {
	h := &e.hot[i]
	api := &e.apis[i]
	if len(h.inbox) > 0 && e.opKind[i] != 0 {
		e.strayMail(i, h.inbox)
	}
	if e.lits.Load() != 0 {
		if st, ok := e.literal(int32(i)); ok {
			return st
		}
	}
	status := h.prog.Step(api, h.inbox)
	for status.kind == statusBecomeStep {
		h.prog = status.contStep // handover, same round
		status = h.prog.Step(api, h.inbox)
	}
	return status
}

// foldCharge moves charged traffic into the run's Metrics, counting
// each charged message exactly as a routed one (its size raises
// MaxMessageBits), and clears the slot.
func (e *engine) foldCharge(c *charge) {
	e.m.Messages += c.msgs
	e.m.TotalBits += c.bits
	if c.max > e.m.MaxMessageBits {
		e.m.MaxMessageBits = c.max
	}
	*c = charge{}
}

// shutdown releases the worker pool.
func (e *engine) shutdown() {
	if e.workCh != nil {
		close(e.workCh) // workers exit; no work item is in flight here
	}
}
