package congest

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sync"
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
	// Workers is the number of engine worker goroutines that step due
	// nodes inside a round barrier. 0 uses runtime.GOMAXPROCS(0); 1 keeps
	// the engine fully sequential. Inboxes are captured before any due
	// node steps and sends only become deliverable at the next barrier,
	// so stepping is data-parallel; outboxes, scheduling effects, and
	// metrics are merged in node-index order after the barrier —
	// message-heavy barriers route in parallel by disjoint receiver
	// shard, which preserves the same per-mailbox order — making
	// Results byte-identical for every Workers value
	// (TestParallelEngineEquivalence, DESIGN.md §6, §10). Runs that end
	// in an error (node panic, bit-bound violation) report the same
	// error, but verdicts recorded in the failing round by nodes after
	// the failing one may differ from the sequential engine's, and the
	// aborted round's message/bit counters and undelivered mailboxes
	// may differ as well — error runs promise only the identical error.
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
		hot:          make([]nodeHot, n),
		outbox:       make([][]outMsg, n),
		rejFlag:      make([]bool, n),
		modeled:      make([]int64, n),
		charged:      make([]charge, n),
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
// worker pool, charges the traffic of elided windows still open at the
// final round (elide.go), and assembles the Result.
func (e *engine) finish() (*Result, error) {
	e.shutdown()
	e.foldOpenWindows()
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
// and write the slab entries of the nodes in their chunk (distinct
// indices, so the compute phase is race-free) plus their own panic slot,
// and the barrier join establishes the happens-before edges back to the
// engine loop.
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
	heapDl   []int64     // deadline of a live heap entry (0: none)
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
	curNode      int              // node being stepped (for the run-level panic recover)
	runErr       error

	// Event-driven wake tracking: no O(n) scans at round barriers.
	alive   int       // nodes not yet done
	dlHeap  []dlEntry // deadline min-heap (lazily invalidated entries)
	mailDue []int32   // nodes whose mailbox went non-empty this round
	queued  []uint64  // bitset: already collected for the current barrier
	nrList  []int32   // nodes parked for exactly round+1 (ascending order)
	extra   []int32   // scratch: mail/heap wakes of the current barrier

	// Worker pool (Workers > 1): barriers with enough due nodes are
	// stepped by a pool of persistent goroutines, then merged in index
	// order by the engine loop.
	workers  int
	pool     int // started worker goroutines
	workCh   chan workChunk
	doneCh   chan struct{}
	statuses []Status // per due position, filled by the workers
	wPanPos  []int    // per worker: due position of its panic (-1: none)
	wPanVal  []any
	wMerge   []mergeState // per worker: sharded-merge accumulators

	// Sharded-merge scratch: due nodes that returned statusDone this
	// barrier (ascending node ids, parallel due positions), so shard
	// workers can apply the sequential engine's done-at-routing-time
	// drop rule before any status has been applied (DESIGN.md §10).
	doneDue []int32
	donePos []int32

	// charged is the per-node slab of traffic a Step accounted for
	// without routing it: StepAPI.ChargeTraffic (Stage I's fixed-point
	// fast-forward) and the elided fixed-content windows of elide.go.
	// The barrier merge folds it into Metrics in due order, where routed
	// traffic is counted, so charges land in the same barrier, phase and
	// snapshot header as the messages they stand for (DESIGN.md §10).
	charged []charge

	// el is the run's elided-window state (elide.go), allocated by the
	// first window through elOnce.
	el     *elideState
	elOnce sync.Once

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

// workChunk is one worker's share of a barrier. In the compute phase it
// is a contiguous slice of the due list and the matching slice of the
// status buffer; because the due list is in ascending node order, a
// chunk walks a contiguous span of every slab. In the merge phase
// (merge=true) every worker receives the full due list plus a disjoint
// receiver-id range [shardLo, shardHi) and routes only the messages
// addressed into its shard (see mergeShard, DESIGN.md §10).
type workChunk struct {
	due      []int32
	statuses []Status
	base     int // due position of due[0] (compute)
	wi       int // worker slot for panic/event reporting
	merge    bool
	shardLo  int32 // merge: receiver-id range [shardLo, shardHi)
	shardHi  int32
}

// Merge-phase event kinds: the first (due position, outbox index) event
// decides the run's error, exactly as the sequential merge would.
const (
	evtNone uint8 = iota
	evtBound
	evtPanic
)

// mergeState is one worker's private accumulator for a sharded merge:
// shard-local metric counters, the shard's mailDue fragment, and the
// earliest abort event the worker observed. Workers write only their
// own entry; the engine loop folds all entries after the join.
type mergeState struct {
	msgs    int64
	bits    int64
	dropped int64
	maxBits int
	mail    []int32 // receivers whose mailbox went empty→non-empty
	evtPos  int     // due position of the first event (-1: none)
	evtMsg  int     // outbox index of the first event
	evtKind uint8
	evtBits int // evtBound: the offending message size
	evtVal  any // evtPanic: the recovered value
}

// minParallelDue is the barrier size below which the engine steps due
// nodes inline even when a worker pool is configured: dispatching a
// handful of nodes to workers costs more than stepping them. Both paths
// produce identical Results, so the threshold is purely a tuning knob.
const minParallelDue = 64

// run is the scheduler loop: step every due node (in index order, which
// keeps inboxes sorted by sender without any sorting), route its sends,
// then fast-forward the global round to the next deadline or delivery.
// With Workers > 1, large barriers are stepped by the worker pool and
// merged in index order (see stepParallel); small barriers and
// single-worker runs step inline, where a panic from a step program
// unwinds to the single recover here (one deferred frame per run
// instead of one per node step).
//
// A restored run (ResumeStep) enters with resumed=true and an empty due
// list: the snapshot was taken right after a barrier's steps, so the
// first iteration skips straight to the post-barrier checks and the
// next-round computation, re-joining the original run's barrier sequence
// exactly.
func (e *engine) run(due []int32, resumed bool) {
	defer func() {
		if r := recover(); r != nil {
			e.runErr = fmt.Errorf("congest: node %d (id %d) panicked at round %d: %v",
				e.curNode, e.ids[e.curNode], e.round, r)
			e.phase[e.curNode] = phaseDone
		}
	}()
	n := e.n
	e.queued = make([]uint64, (n+63)/64)
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
			if e.workers > 1 && len(due) >= minParallelDue {
				if !e.stepParallel(due) {
					return // fatal error; later nodes' sends stay unrouted
				}
			} else {
				for _, i := range due {
					e.curNode = int(i)
					st := e.computeNode(int(i))
					if !e.finishNode(int(i), st) {
						return // fatal error; sends of this round stay unrouted
					}
				}
			}
			// The barrier is complete: outboxes are drained and the
			// engine is quiescent. This is the only point where a
			// snapshot, an injected fault, or a wall-clock deadline can
			// cut the run — all three preserve the invariant that a run
			// either finished a barrier entirely or not at all.
			e.barriers++
			if e.probe != nil {
				e.foldProbe(due)
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
		// All nodes are parked; find the next event round. Nodes parked
		// for the immediately next round sit in nrList; mail wakes its
		// recipient one round after delivery; otherwise the next event is
		// the earliest live deadline in the heap (stale entries — nodes
		// re-parked with a different deadline — are dropped lazily).
		next := -1
		if len(e.nrList) > 0 {
			next = e.round + 1
		} else {
			for _, i := range e.mailDue {
				if e.phase[i] == phaseWaiting {
					next = e.round + 1
					break
				}
			}
		}
		if next == -1 {
			for len(e.dlHeap) > 0 {
				top := e.dlHeap[0]
				if e.phase[top.node] != phaseWaiting || e.deadline[top.node] != top.round {
					p := e.heapPop() // stale
					if e.heapDl[p.node] == p.round {
						e.heapDl[p.node] = 0
					}
					continue
				}
				next = int(top.round)
				break
			}
			if next == -1 {
				// Unreachable: every live waiting node is either in
				// nrList (checked above) or has a live heap entry.
				return
			}
		}
		if next > e.maxRounds {
			e.runErr = fmt.Errorf("congest: exceeded %d rounds", e.maxRounds)
			return
		}
		e.round = next // fast-forward over empty rounds
		// Wake every node that is due: parked for this round or mail
		// waiting. nrList is already in ascending index order (finishNode
		// appends in due order), so only the mail/heap wakes need sorting
		// before the two lists merge. Inboxes are captured for all due
		// nodes before any of them steps, so same-round sends are only
		// deliverable at the next barrier.
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
		for len(e.dlHeap) > 0 && e.dlHeap[0].round <= int64(e.round) {
			top := e.heapPop()
			if e.heapDl[top.node] == top.round {
				e.heapDl[top.node] = 0
			}
			if e.phase[top.node] != phaseWaiting || e.deadline[top.node] != top.round ||
				e.queued[top.node>>6]&(1<<(top.node&63)) != 0 {
				continue // stale or already queued via mail
			}
			e.queued[top.node>>6] |= 1 << (top.node & 63)
			e.extra = append(e.extra, top.node)
		}
		if k := len(e.nrList) + len(e.extra); len(e.extra) > 0 && 8*k >= len(e.queued) {
			// Extracting ascending ids from the queued bitset costs one
			// word per 64 nodes plus one step per due node, which beats
			// sorting the mail/heap wakes unless the barrier is very
			// sparse (fewer than one due node per 512).
			due = due[:0]
			for w, bw := range e.queued {
				for bw != 0 {
					due = append(due, int32(w<<6+bits.TrailingZeros64(bw)))
					bw &= bw - 1
				}
			}
		} else {
			slices.Sort(e.extra)
			due = mergeAscending(due[:0], e.nrList, e.extra)
		}
		e.nrList = e.nrList[:0]
		for _, i := range due {
			e.queued[i>>6] &^= 1 << (i & 63)
			h := &e.hot[i]
			h.inbox, h.mailbox = h.mailbox, h.inbox[:0]
		}
	}
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

// stepParallel runs one barrier on the worker pool: due is split into
// contiguous chunks, each worker steps its chunk's nodes concurrently
// (compute phase: only the chunk's slab entries are touched), and the
// engine loop then routes outboxes and applies statuses in due order
// (merge phase) — exactly the order the sequential engine uses, so
// Results are byte-identical. It reports false when the run must end.
func (e *engine) stepParallel(due []int32) bool {
	w := e.workers
	if maxW := (len(due) + minParallelDue - 1) / minParallelDue; w > maxW {
		w = maxW
	}
	e.ensurePool(w)
	if cap(e.statuses) < len(due) {
		e.statuses = make([]Status, len(due))
	}
	sts := e.statuses[:len(due)]
	chunk := (len(due) + w - 1) / w
	nw := 0
	for lo := 0; lo < len(due); lo += chunk {
		hi := lo + chunk
		if hi > len(due) {
			hi = len(due)
		}
		e.wPanPos[nw] = -1
		e.workCh <- workChunk{due: due[lo:hi], statuses: sts[lo:hi], base: lo, wi: nw}
		nw++
	}
	for k := 0; k < nw; k++ {
		<-e.doneCh
	}
	panPos := -1
	var panVal any
	for wi := 0; wi < nw; wi++ {
		if p := e.wPanPos[wi]; p >= 0 && (panPos == -1 || p < panPos) {
			panPos, panVal = p, e.wPanVal[wi]
		}
	}
	// Choose the merge strategy. Message-heavy barriers merge by
	// receiver shard (mergeSharded); barriers with little routing work,
	// or a compute-phase panic, take the sequential merge below — which is
	// byte-for-byte the pre-shard engine, so panic semantics are
	// inherited rather than re-proved (DESIGN.md §10).
	useShard := panPos < 0
	totalMsgs := 0
	if useShard {
		for _, i := range due {
			totalMsgs += len(e.outbox[i])
		}
	}
	if useShard {
		mw := e.workers
		if lim := totalMsgs / minShardMsgs; mw > lim {
			mw = lim
		}
		if mw >= 2 {
			if e.trace != nil {
				e.trace.Emit(obs.Event{Event: "merge", Round: int64(e.round), Barrier: e.barriers,
					Merge: "sharded", Shards: int64(mw), Messages: int64(totalMsgs)})
			}
			return e.mergeSharded(due, sts, mw)
		}
		if e.trace != nil {
			e.trace.Emit(obs.Event{Event: "merge", Round: int64(e.round), Barrier: e.barriers,
				Merge: "sequential", Messages: int64(totalMsgs)})
		}
	}
	for k, i := range due {
		if k == panPos {
			// Matches the sequential engine's panic handling: the first
			// panicking node in due order decides, its round's sends and
			// those of all later due nodes stay unrouted.
			e.runErr = fmt.Errorf("congest: node %d (id %d) panicked at round %d: %v",
				int(i), e.ids[i], e.round, panVal)
			e.phase[i] = phaseDone
			return false
		}
		// A panic out of finishNode itself (e.g. a Message.Bits
		// implementation panicking during routing) unwinds to run()'s
		// recover, which attributes it via curNode — keep it current so
		// the report matches the sequential engine's.
		e.curNode = int(i)
		if !e.finishNode(int(i), sts[k]) {
			return false
		}
	}
	return true
}

// minShardMsgs is the minimum number of queued messages per merge
// worker: below it, shard workers would spend more time scanning
// outboxes for other shards' traffic than routing their own. Both merge
// paths produce identical Results, so — like minParallelDue — this is
// purely a tuning knob.
const minShardMsgs = 1024

// mergeSharded is the parallel merge phase of one barrier: the receiver
// id space [0, n) is cut into mw contiguous shards and each worker
// routes, in due order, exactly the messages addressed into its shard.
// Shards are disjoint, so every mailbox has a single writer, and each
// worker visits senders (and each sender's outbox) in the same order
// the sequential merge does, so per-mailbox append order — and with it
// the sorted-by-sender invariant — is preserved by construction.
// Metric counters and the mailDue list are accumulated per worker and
// folded sequentially after the join; mailDue order across shards is
// irrelevant (its consumers filter by phase and dedup through the
// queued bitset). Status application, clearRound, and the rejection
// fold run sequentially afterwards in due order, exactly like the
// sequential merge. See DESIGN.md §10 for the full determinism
// argument. It reports false when the run must end.
func (e *engine) mergeSharded(due []int32, sts []Status, mw int) bool {
	// The sequential merge interleaves routing with status application,
	// so a message to a node that terminated earlier in due order is
	// dropped. Shard workers route before any status is applied; the
	// doneDue/donePos tables let them apply the same rule: drop iff the
	// receiver was done before the barrier, or returned statusDone at an
	// earlier due position than the sender.
	e.doneDue, e.donePos = e.doneDue[:0], e.donePos[:0]
	for k, i := range due {
		if sts[k].kind == statusDone {
			e.doneDue = append(e.doneDue, i)
			e.donePos = append(e.donePos, int32(k))
		}
	}
	e.ensurePool(mw)
	shard := (e.n + mw - 1) / mw
	for wi := 0; wi < mw; wi++ {
		lo := int32(wi * shard)
		hi := lo + int32(shard)
		if hi > int32(e.n) {
			hi = int32(e.n)
		}
		e.workCh <- workChunk{due: due, wi: wi, merge: true, shardLo: lo, shardHi: hi}
	}
	for k := 0; k < mw; k++ {
		<-e.doneCh
	}
	// Each worker stopped at its shard's first abort event in
	// (due position, outbox index) order, so the minimum across shards
	// is the event the sequential merge would have hit first.
	evtWi := -1
	for wi := 0; wi < mw; wi++ {
		st := &e.wMerge[wi]
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
		e.curNode = i
		if st.evtKind == evtBound {
			e.runErr = fmt.Errorf("congest: node %d sent %d-bit message, bound is %d",
				i, st.evtBits, e.bitBound)
			e.apis[i].clearRound()
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
	for k, i := range due {
		if len(e.outbox[i]) > 0 {
			e.apis[i].clearRound()
		}
		if c := &e.charged[i]; c.msgs != 0 {
			e.foldCharge(c)
		}
		if e.rejFlag[i] {
			e.rejected = true
		}
		e.applyStatus(int(i), sts[k])
	}
	return true
}

// mergeShard routes one receiver shard: it walks the full due list in
// order and delivers every queued message whose receiver falls in
// [shardLo, shardHi), maintaining shard-local counters and stopping at
// the shard's first abort event (bit-bound violation, or a panicking
// Message.Bits implementation — the only foreign code on this path).
func (e *engine) mergeShard(wc workChunk) {
	st := &e.wMerge[wc.wi]
	var msgs, totalBits, dropped int64
	maxBits := 0
	mail := st.mail[:0]
	curPos, curMsg := 0, 0
	evtPos, evtMsg := -1, 0
	evtKind, evtBits := evtNone, 0
	defer func() {
		st.msgs, st.bits, st.dropped, st.maxBits = msgs, totalBits, dropped, maxBits
		st.mail = mail
		st.evtPos, st.evtMsg, st.evtKind, st.evtBits = evtPos, evtMsg, evtKind, evtBits
		if r := recover(); r != nil {
			st.evtPos, st.evtMsg, st.evtKind, st.evtVal = curPos, curMsg, evtPanic, r
		}
	}()
	for k, i := range wc.due {
		ob := e.outbox[i]
		if len(ob) == 0 {
			continue
		}
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
			if e.phase[to] == phaseDone || e.doneBefore(to, k) {
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
}

// doneBefore reports whether receiver to terminated at a due position
// earlier than senderPos in the current barrier — the sharded merge's
// stand-in for the sequential merge's "already phaseDone at routing
// time" test.
func (e *engine) doneBefore(to int32, senderPos int) bool {
	j, found := slices.BinarySearch(e.doneDue, to)
	return found && int(e.donePos[j]) < senderPos
}

// ensurePool lazily starts the worker goroutines. Workers exit when
// workCh closes (engine shutdown).
func (e *engine) ensurePool(w int) {
	if e.workCh == nil {
		e.workCh = make(chan workChunk, e.workers)
		e.doneCh = make(chan struct{}, e.workers)
		e.wPanPos = make([]int, e.workers)
		e.wPanVal = make([]any, e.workers)
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
			e.computeChunk(wc)
		}
		e.doneCh <- struct{}{}
	}
}

// computeChunk steps every node of one chunk. The due list is ascending,
// so the chunk's slab accesses sweep one contiguous span per slab — the
// parallel compute phase keeps the sequential engine's streaming access
// pattern. A panic is recorded with its due position and ends the chunk
// — the merge phase aborts at the earliest panic position, so the
// unstepped tail of this chunk is never read.
func (e *engine) computeChunk(wc workChunk) {
	k := 0
	defer func() {
		if r := recover(); r != nil {
			e.wPanPos[wc.wi] = wc.base + k
			e.wPanVal[wc.wi] = r
		}
	}()
	for ; k < len(wc.due); k++ {
		wc.statuses[k] = e.computeNode(int(wc.due[k]))
	}
}

// dlEntry is a (wake round, node) pair in the deadline min-heap. Rounds
// are 64-bit like the deadline slab: round numbers legitimately exceed
// 2^31 in fast-forwarded exponential-budget schedules, so they cannot
// be narrowed.
type dlEntry struct {
	round int64
	node  int32
}

func (e *engine) heapPush(round int64, node int32) {
	h := append(e.dlHeap, dlEntry{round: round, node: node})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].round <= h[i].round {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	e.dlHeap = h
}

func (e *engine) heapPop() dlEntry {
	h := e.dlHeap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(h) && h[l].round < h[s].round {
			s = l
		}
		if r < len(h) && h[r].round < h[s].round {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	e.dlHeap = h
	return top
}

// computeNode advances node i by one round: it runs the node's Step (and
// any same-round BecomeStep handovers) and returns the resulting
// status. It touches only node i's slab entries, so distinct nodes'
// computes may run concurrently; all shared effects (routing,
// scheduling, metrics) happen in finishNode.
func (e *engine) computeNode(i int) Status {
	h := &e.hot[i]
	api := &e.apis[i]
	status := h.prog.Step(api, h.inbox)
	for status.kind == statusBecomeStep {
		h.prog = status.contStep // handover, same round
		status = h.prog.Step(api, h.inbox)
	}
	return status
}

// finishNode routes node i's sends and applies its status. Called in due
// (node index) order for every stepped node, which keeps every mailbox
// sorted by sender (at most one message per ordered node pair per
// round). It reports false when the run must end (program panic or
// bit-bound violation).
func (e *engine) finishNode(i int, status Status) bool {
	api := &e.apis[i]
	// Route this node's outbox; messages become deliverable at the next
	// barrier. The adjacency and reverse-port rows are loaded once per
	// node, not once per message.
	if ob := e.outbox[i]; len(ob) > 0 {
		nbrs := e.g.Neighbors(i)
		rp := e.revPort[i]
		for _, om := range ob {
			bits := om.msg.Bits()
			if bits > e.bitBound {
				e.runErr = fmt.Errorf("congest: node %d sent %d-bit message, bound is %d",
					i, bits, e.bitBound)
				api.clearRound()
				return false
			}
			to := int(nbrs[om.port])
			// DroppedToDone counts sends to nodes already done at routing
			// time. A recipient that terminates later in the same round
			// keeps the message in its mailbox unread and it still counts
			// as delivered — the deterministic version of the seed
			// engine's same-round termination race.
			if e.phase[to] == phaseDone {
				e.m.DroppedToDone++
				continue
			}
			th := &e.hot[to]
			if len(th.mailbox) == 0 {
				e.mailDue = append(e.mailDue, int32(to))
			}
			th.mailbox = append(th.mailbox, Inbound{
				Port: int(rp[om.port]),
				From: i,
				Msg:  om.msg,
			})
			e.m.Messages++
			e.m.TotalBits += int64(bits)
			if bits > e.m.MaxMessageBits {
				e.m.MaxMessageBits = bits
			}
		}
		api.clearRound()
	}
	if c := &e.charged[i]; c.msgs != 0 {
		e.foldCharge(c)
	}
	if e.rejFlag[i] {
		e.rejected = true
	}
	e.applyStatus(i, status)
	return true
}

// foldCharge moves one node's charged traffic into the run's Metrics,
// counting each charged message exactly as a routed one (its size
// raises MaxMessageBits), and clears the node's slot.
func (e *engine) foldCharge(c *charge) {
	e.m.Messages += c.msgs
	e.m.TotalBits += c.bits
	if c.max > e.m.MaxMessageBits {
		e.m.MaxMessageBits = c.max
	}
	*c = charge{}
}

// applyStatus applies a stepped node's scheduling outcome: termination,
// a sleep with an explicit wake round, or re-arming for the next round.
// Called in due order by both merge paths, so nrList stays ascending.
func (e *engine) applyStatus(i int, status Status) {
	switch status.kind {
	case statusDone:
		e.phase[i] = phaseDone
		e.alive--
	case statusSleep:
		e.phase[i] = phaseWaiting
		d := status.wake
		if d <= e.round {
			d = e.round + 1
		}
		e.deadline[i] = int64(d)
		e.parkNode(i)
	default: // statusRunning
		e.phase[i] = phaseWaiting
		e.deadline[i] = int64(e.round + 1)
		e.parkNode(i)
	}
}

// parkNode records where the waiting node wakes next. Nodes due at the
// very next round go to nrList (drained every barrier — no heap traffic
// for the dominant streaming case); others enter the deadline heap
// unless a live entry with the same deadline is already there (a node
// woken by mail every round while sleeping toward a fixed deadline would
// otherwise push one duplicate entry per round).
func (e *engine) parkNode(i int) {
	d := e.deadline[i]
	if d == int64(e.round+1) {
		e.nrList = append(e.nrList, int32(i))
		return
	}
	if e.heapDl[i] == d {
		return
	}
	e.heapDl[i] = d
	e.heapPush(d, int32(i))
}

// shutdown releases the worker pool.
func (e *engine) shutdown() {
	if e.workCh != nil {
		close(e.workCh) // workers exit; no chunk is in flight here
	}
}
