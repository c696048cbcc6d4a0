package partition

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/congest"
	"repro/internal/forest"
	"repro/internal/graph"
	"repro/internal/obs"
)

// This file implements Stage I as a StepProgram, in both variants. The
// interpreter state below is the per-node "cold" side of the engine's
// memory model (DESIGN.md §8): one heap object per node behind the
// StepProgram interface, reached once per wake through the slab-backed
// StepAPI, with its per-wake-hot fields (pc and the window flags)
// declared up front; the tree ops in flight live in the engine. Every
// node executes the same static script of budget-synchronized
// operations per phase — broadcasts, convergecasts, single
// cross-boundary rounds, and the contraction flip window — so the whole
// phase schedule compiles to a flat op list: each wake ends the op in
// flight (absorb) and begins the next (prepare). The Deterministic variant compiles the forest
// decomposition into the script; the Randomized variant compiles the
// weighted-edge-selection trials of §4 (Theorem 4) instead. The golden
// table (golden_test.go) pins the Results of both variants, so a change
// to the message schedule or to the order of per-node random draws shows
// up there.

// treeHeightBound is the height bound of the marked subtrees T (the paper
// cites height <= 10 from Czygrinow et al.); we use a small safety margin.
const treeHeightBound = 12

type sOpKind uint8

const (
	sBoundary sOpKind = iota // SendAll(rootAnnounce) + 1 round
	sBcast                   // part-tree broadcast, budget D
	sCvg                     // part-tree convergecast, budget D
	sCross                   // one global round of cross-boundary sends
	sFlip                    // contract's D-round orientation flip window
)

// sTag identifies the glue code (prepare/absorb) of a script op.
type sTag uint8

const (
	tBoundary    sTag = iota
	tHasCross         // cvg: OR of per-node has-cross-edge flags
	tEarlyDec         // bcast: early-exit decision
	tFDStatus         // bcast: forest-decomposition status (arg = super-round)
	tFDActivity       // cross: activity exchange (arg = super-round)
	tFDAgg            // cvg: decomposition aggregate (arg = super-round)
	tSel              // bcast: selected out-edge
	tCand             // cvg: min-id candidate for u^j
	tWinner           // bcast: designated node announcement
	tFSelect          // cross: u^j -> v^j child notice
	tMutual           // cvg: OR of mutual-selection evidence
	tDrop             // bcast: mutual-selection drop decision
	tWithdraw         // cross: withdraw child notice
	tKids             // cvg: child count sum
	tCVIter           // fFetch: Cole-Vishkin iteration (arg = k)
	tShift            // fFetch: shift-down pass (arg = dropped class)
	tRecolor          // fFetch: recolor pass (arg = dropped class)
	tReport           // bcast: part color/weight report
	tReportX          // cross: child report u^j -> v^j
	tColorSums        // cvg: per-color incoming weights
	tMarkPC           // fFetch: parent color for the chi=2 marking rule
	tMarkDec          // bcast: marking decision
	tMarkX            // cross: marked-edge notifications
	tByParent         // cvg: OR of marked-by-parent evidence
	tAnyKid           // cvg: OR of has-marked-child flags
	tOutMkd           // bcast: out-edge-marked mirror bit
	tLvlAnn           // bcast: level announcement (arg = hop)
	tLvlX             // cross: level cascade (arg = hop)
	tLvlUp            // cvg: level pickup (arg = hop)
	tParAnn           // bcast: parity-weight announcement (arg = hop, descending)
	tParX             // cross: parity-weight cascade (arg = hop)
	tParUp            // cvg: parity-weight pickup (arg = hop)
	tDecAnn           // bcast: contraction parity announcement (arg = hop)
	tDecX             // cross: parity cascade (arg = hop)
	tDecUp            // cvg: parity pickup (arg = hop)
	tContract         // bcast: contraction announcement
	tFlip             // flip window
	tAttach           // cross: u^j attaches under v^j
	tTrialPick        // cvg: weighted cut-edge reservoir pick (arg = trial)
	tTrialAnn         // bcast: drawn target announcement (arg = trial)
	tTrialWeight      // cvg: w(P, target) evaluation (arg = trial)
)

// fFetch sites retrieve a part-level value from the F-parent part: every
// part broadcasts its own value, every node forwards it across F-child
// ports, and the designated node u^j convergecasts what it received from
// v^j. They expand to the op triple [bcast own | cross forward | cvg
// pickup], 2D+1 rounds.

type sOp struct {
	kind sOpKind
	ff   bool // op belongs to an fFetch triple (0: bcast, cross, cvg order)
	tag  sTag
	arg  int32
}

// StageIPlan is the compiled per-phase op script of the Stage I schedule
// (either variant), shared by every node of a run.
type StageIPlan struct {
	opts   Options
	phases int
	S      int // forest-decomposition super-rounds
	iters  int // Cole-Vishkin reduction iterations
	trials int // randomized: weighted-edge-selection trials
	ops    []sOp
	fdEnd  int // op index just past the forest-decomposition loop

	// Super-round batching coordination (DESIGN.md §10). A plan carries
	// single-run counter state: every run (and every resume) compiles its
	// own plan, and ResumeNode rebuilds the counters from the decoded
	// nodes. fdParticipants[p] counts the nodes that entered phase p+1's
	// forest decomposition; fdStable[p*S+l] counts participants whose
	// super-round l of phase p+1 was clean (no local decomposition state
	// change). Both are updated with atomics from parallel workers and
	// read only at rounds strictly after the last write to the slot, so
	// the engine barrier provides the happens-before edge (DESIGN.md §10).
	fdParticipants []int64
	fdStable       []int64

	// Cascade-window tallies (DESIGN.md §10), maintained for both
	// variants: cascInT[p] counts the parts of phase p+1 that joined the
	// marked trees T; lvlAt[p*H+h] and decAt[p*H+h] count the parts whose
	// level / contraction parity was assigned during hop h of the phase's
	// cascade loops; lvlByVal[p*(H+1)+L] counts the parts holding level L
	// (H = treeHeightBound). Roots write with atomics; readers only load
	// slots whose last write is at least one hop (2D+1 rounds, hence one
	// engine barrier) old, so the same happens-before argument applies.
	cascInT  []int64
	lvlAt    []int64
	decAt    []int64
	lvlByVal []int64

	// nodeSlab backs the run's interpreter nodes in node-index order: the
	// engine walks due lists ascending, and one contiguous array with a
	// fixed stride keeps the hardware prefetcher ahead of the per-wake
	// first-line load that dominates the Stage I profile (DESIGN.md §5).
	// Both RunStep and ResumeStep construct nodes in ascending order, so
	// slab order matches node order; overflow (never expected) falls back
	// to individual allocation.
	nodeSlab []stageINode
	nodeNext int
	n        int

	// phaseIDs are the per-merging-phase obs phase IDs ("stage1/p01",
	// ...), interned at plan compile time when Options.Probe is set so
	// no node ever takes the probe's intern mutex mid-run; nil when the
	// run is unprobed (beginPhase then announces nothing).
	phaseIDs []obs.PhaseID
}

// NewStageIPlan compiles the Stage I schedule for an n-node network. Both
// the Deterministic and the Randomized variant compile to a script: they
// differ only in the out-edge-selection ops (forest decomposition versus
// weighted selection trials).
func NewStageIPlan(opts Options, n int) *StageIPlan {
	opts = opts.withDefaults()
	pl := &StageIPlan{
		opts:   opts,
		phases: opts.Phases(),
		S:      superRounds(n),
		iters:  forest.CVIterations(int64(n)),
		trials: opts.SelectionTrials(),
		n:      n,
	}
	pl.cascInT = make([]int64, pl.phases)
	pl.lvlAt = make([]int64, pl.phases*treeHeightBound)
	pl.decAt = make([]int64, pl.phases*treeHeightBound)
	pl.lvlByVal = make([]int64, pl.phases*(treeHeightBound+1))
	if opts.Probe != nil {
		pl.phaseIDs = make([]obs.PhaseID, pl.phases)
		for p := range pl.phaseIDs {
			pl.phaseIDs[p] = opts.Probe.Phase(fmt.Sprintf("stage1/p%02d", p+1))
		}
	}
	add := func(kind sOpKind, tag sTag, arg int32) {
		pl.ops = append(pl.ops, sOp{kind: kind, tag: tag, arg: arg})
	}
	ffetch := func(tag sTag, arg int32) {
		pl.ops = append(pl.ops,
			sOp{kind: sBcast, ff: true, tag: tag, arg: arg},
			sOp{kind: sCross, ff: true, tag: tag, arg: arg},
			sOp{kind: sCvg, ff: true, tag: tag, arg: arg},
		)
	}
	// Step 0-1: boundary discovery and early exit.
	add(sBoundary, tBoundary, 0)
	add(sCvg, tHasCross, 0)
	add(sBcast, tEarlyDec, 0)
	// Steps 2-3: out-edge selection (forest decomposition + heaviest edge
	// in the deterministic variant; weighted random trials otherwise),
	// then designation.
	if opts.Variant == Randomized {
		for t := 0; t < pl.trials; t++ {
			add(sCvg, tTrialPick, int32(t))
			add(sBcast, tTrialAnn, int32(t))
			add(sCvg, tTrialWeight, int32(t))
		}
	} else {
		pl.fdParticipants = make([]int64, pl.phases)
		pl.fdStable = make([]int64, pl.phases*pl.S)
		for l := 0; l < pl.S; l++ {
			add(sBcast, tFDStatus, int32(l))
			add(sCross, tFDActivity, int32(l))
			add(sCvg, tFDAgg, int32(l))
		}
	}
	pl.fdEnd = len(pl.ops)
	add(sBcast, tSel, 0)
	add(sCvg, tCand, 0)
	add(sBcast, tWinner, 0)
	add(sCross, tFSelect, 0)
	add(sCvg, tMutual, 0)
	add(sBcast, tDrop, 0)
	add(sCross, tWithdraw, 0)
	add(sCvg, tKids, 0)
	// Step 4: Cole-Vishkin 3-coloring.
	for k := 0; k < pl.iters; k++ {
		ffetch(tCVIter, int32(k))
	}
	for _, drop := range []int32{5, 4, 3} {
		ffetch(tShift, drop)
		ffetch(tRecolor, drop)
	}
	// Steps 5-6: child reports and per-color weight sums.
	add(sBcast, tReport, 0)
	add(sCross, tReportX, 0)
	add(sCvg, tColorSums, 0)
	// Step 7: marking.
	ffetch(tMarkPC, 0)
	add(sBcast, tMarkDec, 0)
	add(sCross, tMarkX, 0)
	add(sCvg, tByParent, 0)
	add(sCvg, tAnyKid, 0)
	add(sBcast, tOutMkd, 0)
	// Steps 8-10: levels, parity weights, contraction decision.
	for hop := 0; hop < treeHeightBound; hop++ {
		add(sBcast, tLvlAnn, int32(hop))
		add(sCross, tLvlX, int32(hop))
		add(sCvg, tLvlUp, int32(hop))
	}
	for hop := treeHeightBound; hop >= 1; hop-- {
		add(sBcast, tParAnn, int32(hop))
		add(sCross, tParX, int32(hop))
		add(sCvg, tParUp, int32(hop))
	}
	for hop := 0; hop < treeHeightBound; hop++ {
		add(sBcast, tDecAnn, int32(hop))
		add(sCross, tDecX, int32(hop))
		add(sCvg, tDecUp, int32(hop))
	}
	// Step 11: contract.
	add(sBcast, tContract, 0)
	add(sFlip, tFlip, 0)
	add(sCross, tAttach, 0)
	return pl
}

// NewNode creates the StepProgram for one node. onDone is invoked exactly
// once, at the round Stage I completes at this node, with the node's
// Outcome; its Status becomes the node's next scheduling instruction
// (Done for standalone runs, BecomeStep(stageII) for the full tester).
func (pl *StageIPlan) NewNode(onDone func(api *congest.StepAPI, out *Outcome) congest.Status) congest.StepProgram {
	s := pl.allocNode()
	s.plan = pl
	s.onDone = onDone
	return s
}

// allocNode hands out the next nodeSlab entry (see the field comment).
func (pl *StageIPlan) allocNode() *stageINode {
	if pl.nodeSlab == nil {
		pl.nodeSlab = make([]stageINode, pl.n)
	}
	if pl.nodeNext >= len(pl.nodeSlab) {
		return &stageINode{}
	}
	s := &pl.nodeSlab[pl.nodeNext]
	pl.nodeNext++
	return s
}

// stageINode is the per-node interpreter state plus the node's Stage I
// state, held in port-indexed slices and reusable scratch buffers so that
// no phase allocates.
type stageINode struct {
	// The dispatch cluster — everything Step touches before entering an
	// op — is packed into the struct's first cache line: with ~19 lines
	// of interpreter state per node and 10⁵-node due lists, the first
	// field loads dominate the Stage I profile, so the flags and scalars
	// the per-wake prologue reads must not be scattered (DESIGN.md §5).
	plan   *StageIPlan
	onDone func(api *congest.StepAPI, out *Outcome) congest.Status

	started   bool
	finished  bool
	fdJoined  bool // entered this phase's forest decomposition (§10)
	fdDirty   bool // current super-round changed local FD state
	fdFF      bool // fast-forwarding the remaining super-rounds
	cascFF    bool // fast-forwarding a cascade loop's quiet tail (§10)
	phase     int  // 1-based
	pc        int
	D         int
	fdFFUntil int // round the current fast-forward window ends at

	phasesRun   int
	earlyExit   bool
	fdCleanMask uint64 // bit l set: super-round l was clean at this node

	// Stage I state. Fields prefixed "part" are meaningful only at the
	// part root, which acts for the auxiliary node v(P).
	rootID   int64
	tree     congest.Tree
	rejected bool

	nbrRoot []int64 // per port: neighbor's part root this phase
	cross   []bool  // per port: crosses a part boundary

	isU         bool
	uPort       int
	fChild      []bool  // per port: an F-child's u^j sits there
	fChildColor []int64 // per port: child color (after report)
	fChildWt    []int64 // per port: aux edge weight
	fChildMark  []bool  // per port: marked aux edge

	partHasOut   bool
	partTarget   int64
	partWeight   int64
	partMutual   bool
	partColor    int64
	partPreShift int64
	partHasKids  bool
	partOutMkd   bool
	partInT      bool
	partLevel    int
	partContract bool

	// Forest-decomposition state (root-only where noted).
	fdActive   bool         // root
	fdResolved bool         // root
	watch      []int64      // root: roots to resolve directions for
	pending    []rootWeight // root: neighbors at inactivation time
	outs       []rootWeight // root: resolved candidate out-edges
	actPort    []bool       // per port: latest activity flag
	actSeen    []bool       // per port: activity flag received
	stStatus   statusMsg    // this super-round's status broadcast

	// Randomized-variant selection state (root-only best tracking plus a
	// reusable cross-port scratch buffer).
	bestW        int64
	bestTarget   int64
	crossScratch []int

	// Scratch buffers for this node's decompAgg contribution.
	ownEntries []rootWeight
	ownWatch   []rootFlag

	// Cached boxed activity payloads (rebuilt when rootID changes).
	actMsgRoot int64
	actMsgT    congest.Message
	actMsgF    congest.Message

	// Inter-op message registers.
	opMsg     congest.Message // last broadcast result (fFetch got, level/parity msg)
	crossGot  congest.Message // cross-round pickup (fFetch fromParent, cascades)
	crossPair pairMsg         // parity cascade sum of marked-child contributions
	cascGot   bool            // u^j got its part's level (parity) in this cascade
	gotSel    selMsg          // designate: broadcast selection
	cvRes     congest.Message // last convergecast result (subtree aggregate)
	dropDec   int64           // designate: mutual-selection drop decision
	mbParent  int64           // mark: marked-by-parent flag
	mkDec     markMsg         // mark: broadcast decision
	mkPC      int64           // root: parent color fetched for marking
	mkPCOK    bool            // root: parent color present
	sums      colorSums       // root: per-color incoming weights
	acc       pairMsg         // root: parity-weight accumulator
	parity    int64           // root: contraction parity decision
	newRoot   int64           // contract: adopted root id
	merging   bool            // contract: this part merges
	flipped   bool            // contract: orientation already flipped
	deadline  int             // flip window deadline
}

// Step implements congest.StepProgram: each wake ends the op in flight
// (the op at pc, once started and outside a fast-forward window) and
// begins the next one.
func (s *stageINode) Step(api *congest.StepAPI, inbox []congest.Inbound) congest.Status {
	switch {
	case !s.started:
		s.started = true
		s.initNode(api)
	case s.fdFF:
		// Inside a batched super-round window (defensive: no message can
		// reach a windowed node, so only the deadline wakes it).
		if api.Round() < s.fdFFUntil {
			return congest.Sleep(s.fdFFUntil)
		}
		s.fdFF = false
		s.fdFinish(api)
	case s.cascFF:
		// Inside a cascade quiet-tail window; unlike the FD window there
		// is no post-loop glue to run at the wake round.
		if api.Round() < s.fdFFUntil {
			return congest.Sleep(s.fdFFUntil)
		}
		s.cascFF = false
	default:
		if !s.absorb(api, &s.plan.ops[s.pc], inbox) {
			return congest.Sleep(s.deadline)
		}
		if !s.finished {
			s.pc++
			if s.pc == len(s.plan.ops) {
				s.pc = 0
				s.finished = s.phase == s.plan.phases
			}
		}
	}
	if s.finished {
		return s.onDone(api, &Outcome{
			RootID:    s.rootID,
			Tree:      s.tree,
			Rejected:  s.rejected,
			PhasesRun: s.phasesRun,
			EarlyExit: s.earlyExit,
		})
	}
	return s.prepare(api, &s.plan.ops[s.pc])
}

// prepare begins op, the op at pc, and returns the Status the node
// yields. A cross round that provably receives nothing is absorbed at
// once, and the convergecast after it begins at the next round.
func (s *stageINode) prepare(api *congest.StepAPI, op *sOp) congest.Status {
	switch op.kind {
	case sBoundary:
		s.beginPhase(api)
		api.SendAll(rootAnnounce{Root: s.rootID})
		return congest.Running()
	case sBcast:
		if op.tag == tFDStatus && s.fdWindow(api, int(op.arg)) {
			return congest.Sleep(s.fdFFUntil)
		}
		if s.cascWindow(api, op) {
			return congest.Sleep(s.fdFFUntil)
		}
		return api.Broadcast(s.tree, api.Round()+s.D, s.prepBcast(api, op))
	case sCvg:
		return s.beginCvg(api, op, api.Round())
	case sCross:
		s.prepCross(api, op)
		if !s.receivesNothing(op) {
			return congest.Running()
		}
		s.absorbCross(api, op, nil)
		s.pc++
		return s.beginCvg(api, &s.plan.ops[s.pc], api.Round()+1)
	default: // sFlip
		s.beginFlip(api)
		return congest.Sleep(s.deadline)
	}
}

// absorb ends op, the op at pc, with this wake's inbox; it reports false
// while the flip window runs.
func (s *stageINode) absorb(api *congest.StepAPI, op *sOp, inbox []congest.Inbound) bool {
	switch op.kind {
	case sBoundary:
		for _, in := range inbox {
			s.nbrRoot[in.Port] = in.Msg.(rootAnnounce).Root
			s.cross[in.Port] = s.nbrRoot[in.Port] != s.rootID
		}
	case sBcast:
		s.absorbBcast(api, op, api.Result())
	case sCvg:
		s.absorbCvg(api, op, api.Result())
	case sCross:
		s.absorbCross(api, op, inbox)
	default: // sFlip
		return s.feedFlip(api, inbox)
	}
	return true
}

func (s *stageINode) initNode(api *congest.StepAPI) {
	deg := api.Degree()
	s.rootID = api.ID()
	s.tree = congest.Tree{ParentPort: -1}
	s.uPort = -1
	// The per-port slices share two backing arrays, so a wake that scans
	// several of them reads adjacent memory.
	words, flags := make([]int64, 3*deg), make([]bool, 5*deg)
	s.nbrRoot, s.fChildColor, s.fChildWt = words[:deg:deg], words[deg:2*deg:2*deg], words[2*deg:]
	s.cross, s.fChild, s.fChildMark = flags[:deg:deg], flags[deg:2*deg:2*deg], flags[2*deg:3*deg:3*deg]
	s.actPort, s.actSeen = flags[3*deg:4*deg:4*deg], flags[4*deg:]
}

// beginPhase resets the per-phase state and does the phase bookkeeping.
func (s *stageINode) beginPhase(api *congest.StepAPI) {
	s.phase++
	s.phasesRun++
	s.D = phaseBudget(s.phase)
	if ids := s.plan.phaseIDs; ids != nil {
		api.PhaseEnter(ids[s.phase-1])
	}
	for p := range s.nbrRoot {
		s.nbrRoot[p] = -1 // boundary discovery treats silent ports as absent
		s.cross[p] = false
		s.fChild[p] = false
		s.fChildColor[p] = 0
		s.fChildWt[p] = 0
		s.fChildMark[p] = false
		s.actPort[p] = false
		s.actSeen[p] = false
	}
	s.isU = false
	s.uPort = -1
	s.cascGot = false
	s.partHasOut = false
	s.partTarget = 0
	s.partWeight = 0
	s.partMutual = false
	s.partColor = 0
	s.partPreShift = 0
	s.partHasKids = false
	s.partOutMkd = false
	s.partInT = false
	s.partLevel = -1
	s.partContract = false
	s.fdActive = true
	s.fdResolved = false
	s.watch = s.watch[:0]
	s.pending = s.pending[:0]
	s.outs = s.outs[:0]
	s.fdJoined = false
	s.fdDirty = false
	s.fdCleanMask = 0
	s.fdFF = false
	s.cascFF = false
	s.fdFFUntil = 0
	s.mkPCOK = false
	s.sums = colorSums{}
	s.acc = pairMsg{}
	s.parity = -1
	s.merging = false
	s.flipped = false
	s.bestW = -1
	s.bestTarget = 0
}

// markedChildPorts iterates ports with a marked child edge in ascending
// order.
func (s *stageINode) eachMarkedChild(f func(p int)) {
	for p, m := range s.fChildMark {
		if m {
			f(p)
		}
	}
}

// prepBcast returns the root payload for a broadcast op (non-root values
// are ignored by StepAPI.Broadcast). All
// prepare-time side effects are root-only, so non-root nodes skip payload
// construction entirely and avoid the interface boxing.
func (s *stageINode) prepBcast(api *congest.StepAPI, op *sOp) congest.Message {
	if !s.tree.IsRoot() {
		return nil
	}
	if op.ff {
		// All fFetch sites broadcast the part color; the first CV iteration
		// also initializes it (colorPart entry glue).
		if op.tag == tCVIter && op.arg == 0 && s.tree.IsRoot() {
			s.partColor = s.rootID
		}
		return vmsg(s.partColor)
	}
	switch op.tag {
	case tEarlyDec:
		var any int64
		if v, ok := s.cvRes.(valMsg); ok {
			any = v.V
		}
		return vmsg(any)
	case tFDStatus:
		return smsg(s.fdActive, s.watch)
	case tTrialAnn:
		if tm, ok := s.cvRes.(trialMsg); ok {
			return vmsg(tm.Target)
		}
		return noneMsg{}
	case tSel:
		return selMsg{HasOut: s.partHasOut, Target: s.partTarget, Weight: s.partWeight}
	case tWinner:
		if s.tree.IsRoot() {
			return s.cvRes
		}
		return noneMsg{}
	case tDrop:
		return vmsg(s.dropDec)
	case tReport:
		return reportMsg{Color: s.partColor, Weight: s.partWeight}
	case tMarkDec:
		var dec markMsg
		if s.tree.IsRoot() {
			parentColor := int64(0)
			if s.mkPCOK && s.partHasOut {
				parentColor = s.mkPC
			}
			switch s.partColor {
			case 1:
				if s.partHasOut && s.partWeight >= s.sums.W[1]+s.sums.W[2]+s.sums.W[3] {
					dec.MarkOut = true
				} else {
					dec.InClass = markAllIn
				}
			case 2:
				if s.partHasOut && parentColor == 3 && s.partWeight >= s.sums.W[3] {
					dec.MarkOut = true
				} else {
					dec.InClass = 3
				}
			}
		}
		return dec
	case tOutMkd:
		var v int64
		if s.tree.IsRoot() && s.partOutMkd {
			v = 1
		}
		return vmsg(v)
	case tLvlAnn:
		if op.arg == 0 && s.tree.IsRoot() && s.partInT && !s.partOutMkd {
			s.partLevel = 0 // computeLevels entry glue
			s.recordLevel(0)
		}
		if s.tree.IsRoot() && s.partLevel == int(op.arg) {
			return vmsg(int64(s.partLevel))
		}
		return noneMsg{}
	case tParAnn:
		if int(op.arg) == treeHeightBound && s.tree.IsRoot() {
			// aggregateParityWeights entry glue.
			s.acc = pairMsg{}
			if s.partInT && s.partOutMkd && s.partLevel > 0 {
				if s.partLevel%2 == 0 {
					s.acc.A = s.partWeight
				} else {
					s.acc.B = s.partWeight
				}
			}
		}
		if s.tree.IsRoot() && s.partLevel == int(op.arg) && s.partOutMkd {
			return s.acc
		}
		return noneMsg{}
	case tDecAnn:
		if op.arg == 0 && s.tree.IsRoot() {
			// decideContraction entry glue.
			s.parity = -1
			if s.partInT && s.partLevel == 0 {
				if s.acc.A >= s.acc.B {
					s.parity = 0
				} else {
					s.parity = 1
				}
				atomic.AddInt64(&s.plan.decAt[(s.phase-1)*treeHeightBound], 1)
			}
		}
		if s.tree.IsRoot() && s.partLevel == int(op.arg) && s.parity >= 0 {
			return vmsg(s.parity)
		}
		return noneMsg{}
	case tContract:
		if s.tree.IsRoot() {
			// decideContraction exit glue.
			if s.partInT && s.partOutMkd && s.partLevel > 0 && s.parity >= 0 {
				even := s.partLevel%2 == 0
				s.partContract = (even && s.parity == 0) || (!even && s.parity == 1)
			}
			if s.partContract {
				return vmsg(s.partTarget)
			}
		}
		return noneMsg{}
	}
	panic("partition: unknown bcast tag")
}

// absorbBcast consumes the broadcast result at every node.
func (s *stageINode) absorbBcast(api *congest.StepAPI, op *sOp, got congest.Message) {
	if op.ff {
		s.opMsg = got
		return
	}
	switch op.tag {
	case tEarlyDec:
		if got.(valMsg).V == 0 {
			s.earlyExit = true
			s.finished = true
		} else if s.plan.opts.Variant == Deterministic {
			// This node runs the phase's forest decomposition; register it
			// so fdWindow can tell when every participant is at the fixed
			// point. The counter settles at this op's deadline barrier,
			// strictly before the first read (super-round 3's first round).
			s.fdJoined = true
			atomic.AddInt64(&s.plan.fdParticipants[s.phase-1], 1)
		}
	case tFDStatus:
		g := got.(statusMsg)
		if g.Active != s.stStatus.Active || !slices.Equal(g.Watch, s.stStatus.Watch) {
			s.fdDirty = true
		}
		s.stStatus = g
	case tTrialAnn:
		s.opMsg = got // the drawn target (valMsg) or noneMsg
	case tSel:
		s.gotSel = got.(selMsg)
	case tWinner:
		if v, ok := got.(valMsg); ok && s.gotSel.HasOut && v.V == api.ID() {
			s.isU = true
			for p, c := range s.cross {
				if c && s.nbrRoot[p] == s.gotSel.Target {
					s.uPort = p
					break
				}
			}
		}
	case tDrop:
		if got.(valMsg).V == 1 && s.isU {
			s.isU = false // designation withdrawn
		}
		s.dropDec = got.(valMsg).V
	case tReport:
		s.opMsg = got
	case tMarkDec:
		s.mkDec = got.(markMsg)
	case tOutMkd:
		s.partOutMkd = got.(valMsg).V == 1
	case tLvlAnn, tParAnn, tDecAnn:
		if op.arg == 0 && op.tag != tParAnn {
			s.cascGot = false // a level or parity cascade starts
		}
		s.opMsg = got
	case tContract:
		if v, ok := got.(valMsg); ok {
			s.newRoot, s.merging = v.V, true
		} else {
			s.newRoot, s.merging = 0, false
		}
	}
}

// beginCvg begins the convergecast op at round start, the current round
// or, after a cross round the node skips, the next one.
func (s *stageINode) beginCvg(api *congest.StepAPI, op *sOp, start int) congest.Status {
	own, comb := s.prepCvg(api, op)
	return api.Convergecast(s.tree, start, start+s.D, own, comb)
}

// prepCvg returns this node's contribution and the combiner for a
// convergecast op.
func (s *stageINode) prepCvg(api *congest.StepAPI, op *sOp) (congest.Message, congest.Combiner) {
	if op.ff {
		return s.crossGot, cmbFirst
	}
	switch op.tag {
	case tHasCross:
		var has int64
		for _, c := range s.cross {
			if c {
				has = 1
			}
		}
		return vmsg(has), cmbOr
	case tFDAgg:
		own := decompAgg{}
		s.ownEntries = s.ownEntries[:0]
		for p, c := range s.cross {
			if !(c && s.actSeen[p] && s.actPort[p]) {
				continue
			}
			root := s.nbrRoot[p]
			// Insert into the root-sorted entry list (degree is small).
			i := len(s.ownEntries)
			for i > 0 && s.ownEntries[i-1].Root > root {
				i--
			}
			if i > 0 && s.ownEntries[i-1].Root == root {
				s.ownEntries[i-1].Weight++
				continue
			}
			s.ownEntries = append(s.ownEntries, rootWeight{})
			copy(s.ownEntries[i+1:], s.ownEntries[i:])
			s.ownEntries[i] = rootWeight{Root: root, Weight: 1}
		}
		own.Entries = s.ownEntries
		s.ownWatch = s.ownWatch[:0]
		for _, wr := range s.stStatus.Watch {
			for p, c := range s.cross {
				if c && s.actSeen[p] && s.nbrRoot[p] == wr {
					s.ownWatch = append(s.ownWatch, rootFlag{Root: wr, Active: s.actPort[p]})
					break
				}
			}
		}
		own.Watch = s.ownWatch
		fd := cmbFD.With(int64(3*s.plan.opts.Alpha + 1))
		if len(own.Entries) == 0 && len(own.Watch) == 0 {
			return emptyDecomp, fd // interior nodes: no boxing
		}
		return own, fd
	case tTrialPick:
		// Each node draws a uniform incident cut edge; the convergecast
		// performs the weighted reservoir pick (combineTrial), so the part
		// draws a uniform cut edge via the tree sampling of §4.1.
		s.crossScratch = s.crossScratch[:0]
		for p, c := range s.cross {
			if c {
				s.crossScratch = append(s.crossScratch, p)
			}
		}
		if len(s.crossScratch) > 0 {
			p := s.crossScratch[api.Rand().Intn(len(s.crossScratch))]
			return trialMsg{
				NodeID: api.ID(),
				Target: s.nbrRoot[p],
				Degree: int64(len(s.crossScratch)),
			}, cmbTrial
		}
		return noneMsg{}, cmbTrial
	case tTrialWeight:
		// Step (3): count this node's edges into the announced target.
		cnt := int64(0)
		if tv, ok := s.opMsg.(valMsg); ok {
			for p, c := range s.cross {
				if c && s.nbrRoot[p] == tv.V {
					cnt++
				}
			}
		}
		return vmsg(cnt), cmbSum
	case tCand:
		if s.gotSel.HasOut {
			for p, c := range s.cross {
				if c && s.nbrRoot[p] == s.gotSel.Target {
					return vmsg(api.ID()), cmbMin
				}
			}
		}
		return noneMsg{}, cmbMin
	case tMutual:
		var mutual int64
		for p, f := range s.fChild {
			if f && s.gotSel.HasOut && s.nbrRoot[p] == s.gotSel.Target {
				mutual = 1
			}
		}
		return vmsg(mutual), cmbOr
	case tKids:
		var kids int64
		for _, f := range s.fChild {
			if f {
				kids++
			}
		}
		return vmsg(kids), cmbSum
	case tColorSums:
		own := colorSums{}
		for p, f := range s.fChild {
			if !f {
				continue
			}
			c := s.fChildColor[p]
			if c >= 1 && c <= 3 {
				own.W[c] += s.fChildWt[p]
			}
		}
		if own == (colorSums{}) {
			return zeroColorSums, cmbColorSums
		}
		return own, cmbColorSums
	case tByParent:
		return vmsg(s.mbParent), cmbOr
	case tAnyKid:
		var has int64
		s.eachMarkedChild(func(int) { has = 1 })
		return vmsg(has), cmbOr
	case tLvlUp, tDecUp:
		return s.crossGot, cmbFirst
	case tParUp:
		if s.crossPair == (pairMsg{}) {
			return zeroPair, cmbPairSum
		}
		return s.crossPair, cmbPairSum
	}
	panic("partition: unknown cvg tag")
}

// absorbCvg consumes the convergecast result (the root sees the full
// aggregate, every other node its subtree aggregate).
func (s *stageINode) absorbCvg(api *congest.StepAPI, op *sOp, agg congest.Message) {
	s.cvRes = agg
	root := s.tree.IsRoot()
	if op.ff {
		if !root {
			return
		}
		res, isVal := agg.(valMsg)
		switch op.tag {
		case tCVIter:
			parent := forest.CVRootParent(s.partColor)
			if isVal && s.partHasOut {
				parent = res.V
			}
			s.partColor = forest.CVStep(s.partColor, parent)
		case tShift:
			s.partPreShift = s.partColor
			if isVal && s.partHasOut {
				s.partColor = res.V
			} else if s.partColor == 0 {
				s.partColor = 1
			} else {
				s.partColor = 0
			}
		case tRecolor:
			if s.partColor == int64(op.arg) {
				used := [6]bool{}
				if isVal && s.partHasOut {
					used[res.V] = true
				}
				if s.partHasKids {
					used[s.partPreShift] = true
				}
				for c := int64(0); c < 3; c++ {
					if !used[c] {
						s.partColor = c
						break
					}
				}
			}
			if op.arg == 3 {
				s.partColor++ // colorPart exit glue: colors 1..3
			}
		case tMarkPC:
			s.mkPC, s.mkPCOK = 0, false
			if isVal {
				s.mkPC, s.mkPCOK = res.V, true
			}
		}
		return
	}
	switch op.tag {
	case tFDAgg:
		if root {
			s.fdRootDecision(api, agg.(decompAgg), int(op.arg))
		}
		if l := int(op.arg); s.fdJoined && !s.fdDirty && l >= 1 && l < 64 {
			// Super-round l replayed super-round l-1 at this node verbatim;
			// fdWindow reads the tally two super-rounds later (DESIGN.md
			// §10), so the atomic add below settles well before any read.
			s.fdCleanMask |= 1 << uint(l)
			atomic.AddInt64(&s.plan.fdStable[(s.phase-1)*s.plan.S+l], 1)
		}
		if int(op.arg) == s.plan.S-1 {
			s.fdFinish(api)
		}
	case tTrialWeight:
		if root {
			if tv, ok := s.opMsg.(valMsg); ok {
				if w := agg.(valMsg).V; w > s.bestW {
					s.bestW, s.bestTarget = w, tv.V
				}
			}
			if int(op.arg) == s.plan.trials-1 && s.bestW > 0 {
				// After the last trial the maximum-weight draw wins.
				s.partHasOut = true
				s.partTarget = s.bestTarget
				s.partWeight = s.bestW
			}
		}
	case tMutual:
		s.dropDec = 0
		if root && agg.(valMsg).V == 1 && s.rootID > s.gotSel.Target {
			s.partHasOut = false
			s.partMutual = true
			s.dropDec = 1
		}
	case tKids:
		if root {
			s.partHasKids = agg.(valMsg).V > 0
		}
	case tColorSums:
		if root {
			s.sums = agg.(colorSums)
		}
	case tByParent:
		if root {
			s.partOutMkd = s.mkDec.MarkOut || agg.(valMsg).V == 1
		}
	case tAnyKid:
		if root {
			s.partInT = s.partOutMkd || agg.(valMsg).V == 1
			if s.partInT {
				atomic.AddInt64(&s.plan.cascInT[s.phase-1], 1)
			}
		}
	case tLvlUp:
		if root && s.partLevel == -1 {
			if v, ok := agg.(valMsg); ok {
				s.partLevel = int(v.V)
				s.recordLevel(int(op.arg))
			}
		}
	case tParUp:
		if root {
			sub := agg.(pairMsg)
			s.acc.A += sub.A
			s.acc.B += sub.B
		}
	case tDecUp:
		if root && s.parity == -1 {
			if v, ok := agg.(valMsg); ok {
				s.parity = v.V
				atomic.AddInt64(&s.plan.decAt[(s.phase-1)*treeHeightBound+int(op.arg)], 1)
			}
		}
	}
}

// fdRootDecision is the root's decision in one super-round of the forest
// decomposition, which emulates the Barenboim–Elkin peeling on the
// auxiliary graph G_i (§2.1.5).
func (s *stageINode) fdRootDecision(api *congest.StepAPI, agg decompAgg, l int) {
	alpha := s.plan.opts.Alpha
	if s.fdActive {
		if !agg.TooMany && len(agg.Entries) <= 3*alpha {
			s.fdDirty = true
			s.fdActive = false
			s.pending = append(s.pending[:0], agg.Entries...)
			s.watch = s.watch[:0]
			for _, e := range s.pending {
				s.watch = append(s.watch, e.Root)
			}
		}
	} else if len(s.watch) > 0 {
		// Resolve edge directions one super-round after inactivation.
		s.fdDirty = true
		for _, e := range s.pending {
			active := false
			for _, wf := range agg.Watch {
				if wf.Root == e.Root {
					active = wf.Active
					break
				}
			}
			if active || s.rootID < e.Root {
				s.outs = append(s.outs, e)
			}
		}
		s.watch = s.watch[:0]
		s.fdResolved = true
	}
}

// fdFinish ends the forest decomposition at the root: it records reject
// evidence or the conservative resolution, and keeps the heaviest
// out-edge candidate.
func (s *stageINode) fdFinish(api *congest.StepAPI) {
	if !s.tree.IsRoot() {
		return
	}
	if s.fdActive {
		s.rejected = true
		api.Output(congest.VerdictReject)
	} else if !s.fdResolved && len(s.watch) > 0 {
		for _, e := range s.pending {
			if s.rootID < e.Root {
				s.outs = append(s.outs, e)
			}
		}
	}
	// storeOuts: keep the heaviest candidate, ties by lower root id.
	s.partHasOut = false
	for _, e := range s.outs {
		if !s.partHasOut || e.Weight > s.partWeight ||
			(e.Weight == s.partWeight && e.Root < s.partTarget) {
			s.partHasOut = true
			s.partTarget = e.Root
			s.partWeight = e.Weight
		}
	}
}

// fdWindow runs at the first round of forest-decomposition super-round l
// and decides whether the phase's remaining super-rounds can be
// fast-forwarded (DESIGN.md §10). Once every participant of the phase has
// recorded super-round l-2 as clean, the decomposition is at a fixed
// point: super-rounds l-1, l, ... replay the same messages and decisions
// verbatim, so executing them can be replaced by charging their traffic
// and sleeping. The node jumps its program counter past the loop and
// wakes at exactly the round the unbatched schedule would run fdFinish,
// which keeps verdict rounds — and hence StopOnReject cuts — identical.
// The counter slot read here was last written one full super-round (2D+1
// rounds, hence at least one engine barrier) earlier, so the read is
// race-free and every participant takes the same branch at the same
// round: lockstep is preserved.
func (s *stageINode) fdWindow(api *congest.StepAPI, l int) bool {
	s.fdDirty = false // super-round l starts here
	pl := s.plan
	if pl.opts.NoSuperRoundBatching || l < 3 || l-2 > 63 {
		return false
	}
	p := s.phase - 1
	if atomic.LoadInt64(&pl.fdStable[p*pl.S+(l-2)]) != atomic.LoadInt64(&pl.fdParticipants[p]) {
		return false
	}
	// Per skipped super-round this node would send: the status broadcast
	// to each tree child, one activity message per cross edge, and — at
	// every non-root — one convergecast aggregate to the parent. All
	// three payloads are the ones of the just-completed super-round
	// (that is what "fixed point" means), so their sizes are exact.
	K := pl.S - l
	nCross := 0
	for _, c := range s.cross {
		if c {
			nCross++
		}
	}
	msgs := int64(len(s.tree.ChildPorts) + nCross)
	bits, maxBits := int64(0), 0
	if len(s.tree.ChildPorts) > 0 {
		b := s.stStatus.Bits()
		bits, maxBits = int64(len(s.tree.ChildPorts))*int64(b), b
	}
	if nCross > 0 {
		b := activityMsg{Root: s.rootID, Active: s.stStatus.Active}.Bits()
		bits += int64(nCross) * int64(b)
		maxBits = max(maxBits, b)
	}
	if !s.tree.IsRoot() {
		b := s.cvRes.Bits()
		msgs++
		bits += int64(b)
		maxBits = max(maxBits, b)
	}
	api.ChargeTraffic(int64(K)*msgs, int64(K)*bits, maxBits)
	s.fdFF = true
	s.fdFFUntil = api.Round() + K*(2*s.D+1)
	s.pc = pl.fdEnd
	return true
}

// recordLevel tallies a just-assigned part level for the cascade windows
// (DESIGN.md §10): the per-hop slot feeds the level loop's quiet-tail
// predicate, the per-value slot the parity loop's skip target. Root-only
// (levels live at part roots).
func (s *stageINode) recordLevel(hop int) {
	pl := s.plan
	p := s.phase - 1
	atomic.AddInt64(&pl.lvlAt[p*treeHeightBound+hop], 1)
	if s.partLevel <= treeHeightBound {
		atomic.AddInt64(&pl.lvlByVal[p*(treeHeightBound+1)+s.partLevel], 1)
	}
}

// cascWindow runs at the announcement round of a cascade-loop hop and
// decides whether the loop's remaining inert hops can be fast-forwarded
// (DESIGN.md §10). A hop of the level or parity-decision loop is provably
// inert once every part of the marked trees T has its level (respectively
// contraction parity) assigned: assignments recorded through hop j-2 bound
// every part level by j-1, so no part announces at hop >= j and no state
// changes again. The parity-weight loop iterates hops downward with
// announcements only at hops maxLevel..1, so its quiet PREFIX is skipped:
// the skip target is the highest assigned level, read from tallies that
// settled when the level loop ended. An inert hop still carries the
// broadcast/convergecast scaffolding traffic — a noneMsg to every tree
// child and one all-none aggregate (noneMsg, or the zero pairMsg in the
// parity-weight loop) to the parent — which is charged exactly, K hops at
// once. Every tally slot read here was last written at least one full hop
// (2D+1 rounds, hence at least one engine barrier) earlier, so all nodes
// read the same settled values at the same round and take the window in
// lockstep, exactly as fdWindow does.
func (s *stageINode) cascWindow(api *congest.StepAPI, op *sOp) bool {
	pl := s.plan
	if pl.opts.NoSuperRoundBatching || op.ff {
		return false
	}
	p := s.phase - 1
	hop := int(op.arg)
	K := 0
	switch op.tag {
	case tLvlAnn, tDecAnn:
		if hop < 2 {
			return false
		}
		tally := pl.lvlAt
		if op.tag == tDecAnn {
			tally = pl.decAt
		}
		var sum int64
		for h := 0; h <= hop-2; h++ {
			sum += atomic.LoadInt64(&tally[p*treeHeightBound+h])
		}
		if sum != atomic.LoadInt64(&pl.cascInT[p]) {
			return false
		}
		K = treeHeightBound - hop
	case tParAnn:
		if hop >= treeHeightBound {
			return false // hop H runs: it carries the loop's entry glue
		}
		M := 0
		for L := treeHeightBound; L >= 1; L-- {
			if atomic.LoadInt64(&pl.lvlByVal[p*(treeHeightBound+1)+L]) > 0 {
				M = L
				break
			}
		}
		K = hop - M
	default:
		return false
	}
	if K <= 0 {
		return false
	}
	kids := int64(len(s.tree.ChildPorts))
	msgs := kids
	bits, maxBits := kids*int64(noneMsg{}.Bits()), 0
	if kids > 0 {
		maxBits = noneMsg{}.Bits()
	}
	if !s.tree.IsRoot() {
		up := noneMsg{}.Bits()
		if op.tag == tParAnn {
			up = pairMsg{}.Bits()
		}
		msgs++
		bits += int64(up)
		maxBits = max(maxBits, up)
	}
	api.ChargeTraffic(int64(K)*msgs, int64(K)*bits, maxBits)
	// Mirror the state the skipped inert hops would have left behind.
	s.opMsg = noneMsg{}
	if op.tag == tParAnn {
		s.cvRes = zeroPair
		s.crossPair = pairMsg{}
	} else {
		s.crossGot = noneMsg{}
		s.cvRes = noneMsg{}
	}
	s.cascFF = true
	s.fdFFUntil = api.Round() + K*(2*s.D+1)
	s.pc += 3 * K
	return true
}

// prepCross performs this node's sends for a single cross-boundary round,
// in ascending port order.
func (s *stageINode) prepCross(api *congest.StepAPI, op *sOp) {
	if op.ff {
		for p, f := range s.fChild {
			if f {
				api.Send(p, s.opMsg)
			}
		}
		return
	}
	switch op.tag {
	case tFDActivity:
		if s.actMsgRoot != s.rootID {
			// Re-box the two activity payload variants only when the part
			// root changed (once per contraction, not per super-round).
			s.actMsgT = activityMsg{Root: s.rootID, Active: true}
			s.actMsgF = activityMsg{Root: s.rootID, Active: false}
			s.actMsgRoot = s.rootID
		}
		m := s.actMsgF
		if s.stStatus.Active {
			m = s.actMsgT
		}
		for p, c := range s.cross {
			if c {
				api.Send(p, m)
			}
		}
	case tFSelect:
		if s.isU {
			api.Send(s.uPort, fSelect{ChildRoot: s.rootID})
		}
	case tWithdraw:
		if s.dropDec == 1 && s.uPort >= 0 {
			api.Send(s.uPort, edgeMarked{}) // reused as "withdraw" marker
		}
	case tReportX:
		if s.isU {
			rep := s.opMsg.(reportMsg)
			api.Send(s.uPort, childReport{Color: rep.Color, Weight: rep.Weight})
		}
	case tMarkX:
		for p, f := range s.fChild {
			if f && (s.mkDec.InClass == markAllIn || int64(s.mkDec.InClass) == s.fChildColor[p]) {
				s.fChildMark[p] = true
			}
		}
		// Sends in ascending port order (u^j's out-edge and child edges).
		for p, deg := 0, api.Degree(); p < deg; p++ {
			if (s.isU && s.mkDec.MarkOut && p == s.uPort) || s.fChildMark[p] {
				api.Send(p, edgeMarked{})
			}
		}
	case tLvlX, tDecX:
		if v, ok := s.opMsg.(valMsg); ok {
			fwd := vmsg(v.V + 1)
			if op.tag == tDecX {
				fwd = s.opMsg // parity forwarded unchanged
			}
			s.eachMarkedChild(func(p int) { api.Send(p, fwd) })
		}
	case tParX:
		if _, ok := s.opMsg.(pairMsg); ok && s.isU && s.partOutMkd {
			api.Send(s.uPort, s.opMsg)
		}
	case tAttach:
		if s.merging && s.isU {
			api.Send(s.uPort, attachMsg{})
		}
	}
}

// receivesNothing reports whether the node provably receives no message
// in the cross round op, so that it may run the round's absorb on an
// empty inbox at once and skip its wake at the next round (DESIGN.md
// §10). Who sends on an edge is fixed by isU, fChild, fChildMark and
// cross, which are symmetric across the edge: an F-parent's node sends
// (fetched values, marks) only to the u^j of an F-child part, and levels
// and parities only to one whose out-edge is marked (partOutMkd, the
// mirror of fChildMark), once per cascade (cascGot); u^j sends (reports,
// withdrawals, marks, parity weights) only to a node holding it as an
// F-child (or, for parity weights, as a marked one), and withdraws only
// on a mutual selection its part loses; the activity exchange runs on
// cross edges. Every
// such round is followed by a convergecast; the F-selection and attach
// rounds, whose receivers are not known in advance, never skip.
func (s *stageINode) receivesNothing(op *sOp) bool {
	if s.pc+1 == len(s.plan.ops) || s.plan.ops[s.pc+1].kind != sCvg {
		return false
	}
	if op.ff {
		return !s.isU
	}
	switch op.tag {
	case tFDActivity:
		return !slices.Contains(s.cross, true)
	case tReportX:
		return !slices.Contains(s.fChild, true)
	case tMarkX:
		return !s.isU && !slices.Contains(s.fChild, true)
	case tLvlX, tDecX:
		return !s.isU || !s.partOutMkd || s.cascGot
	case tWithdraw:
		// u^j withdraws only when its part loses a mutual selection: this
		// part selected the child's part, whose root id is the larger.
		for p, f := range s.fChild {
			if f && s.gotSel.HasOut && s.nbrRoot[p] == s.gotSel.Target && s.nbrRoot[p] > s.rootID {
				return false
			}
		}
		return true
	case tParX:
		return !slices.Contains(s.fChildMark, true)
	}
	return false
}

// absorbCross consumes the messages of a cross-boundary round.
func (s *stageINode) absorbCross(api *congest.StepAPI, op *sOp, inbox []congest.Inbound) {
	if op.ff {
		s.crossGot = noneMsg{}
		for _, m := range inbox {
			if s.isU && m.Port == s.uPort {
				s.crossGot = m.Msg
			}
		}
		return
	}
	switch op.tag {
	case tFDActivity:
		for _, m := range inbox {
			am := m.Msg.(activityMsg)
			if !s.actSeen[m.Port] || s.actPort[m.Port] != am.Active {
				s.fdDirty = true
			}
			s.actPort[m.Port] = am.Active
			s.actSeen[m.Port] = true
		}
	case tFSelect:
		for _, m := range inbox {
			if _, ok := m.Msg.(fSelect); ok {
				s.fChild[m.Port] = true
				s.fChildWt[m.Port] = 0
				s.fChildColor[m.Port] = 0
			}
		}
	case tWithdraw:
		for _, m := range inbox {
			if _, ok := m.Msg.(edgeMarked); ok {
				s.fChild[m.Port] = false
				s.fChildWt[m.Port] = 0
				s.fChildColor[m.Port] = 0
			}
		}
	case tReportX:
		for _, m := range inbox {
			if cr, ok := m.Msg.(childReport); ok && s.fChild[m.Port] {
				s.fChildColor[m.Port] = cr.Color
				s.fChildWt[m.Port] = cr.Weight
			}
		}
	case tMarkX:
		s.mbParent = 0
		for _, m := range inbox {
			if _, ok := m.Msg.(edgeMarked); !ok {
				continue
			}
			if s.isU && m.Port == s.uPort {
				s.mbParent = 1
			} else if s.fChild[m.Port] {
				s.fChildMark[m.Port] = true
			}
		}
	case tLvlX, tDecX:
		s.crossGot = noneMsg{}
		for _, m := range inbox {
			if s.isU && m.Port == s.uPort && s.partOutMkd {
				s.crossGot = m.Msg
				s.cascGot = true
			}
		}
	case tParX:
		s.crossPair = pairMsg{}
		for _, m := range inbox {
			if pm, ok := m.Msg.(pairMsg); ok && s.fChildMark[m.Port] {
				s.crossPair.A += pm.A
				s.crossPair.B += pm.B
			}
		}
	case tAttach:
		for _, m := range inbox {
			if _, ok := m.Msg.(attachMsg); ok {
				s.tree.ChildPorts = insertPortSorted(s.tree.ChildPorts, m.Port)
			}
		}
		if s.merging {
			s.rootID = s.newRoot
		}
	}
}

// beginFlip opens the contraction flip window (contract's path reversal).
func (s *stageINode) beginFlip(api *congest.StepAPI) {
	s.deadline = api.Round() + s.D
	s.flipped = false
	if s.merging && s.isU {
		oldParent := s.tree.ParentPort
		s.tree.ParentPort = s.uPort
		if oldParent >= 0 {
			api.Send(oldParent, flipMsg{})
			s.tree.ChildPorts = insertPortSorted(s.tree.ChildPorts, oldParent)
		}
		s.flipped = true
	}
}

// feedFlip consumes one wake of the flip window; returns true at the
// deadline.
func (s *stageINode) feedFlip(api *congest.StepAPI, inbox []congest.Inbound) bool {
	for _, m := range inbox {
		if _, ok := m.Msg.(flipMsg); !ok {
			panic("partition: unexpected message during flip")
		}
		if s.flipped {
			panic("partition: node flipped twice")
		}
		s.flipped = true
		oldParent := s.tree.ParentPort
		s.tree.ParentPort = m.Port
		removePort(&s.tree.ChildPorts, m.Port)
		if oldParent >= 0 {
			api.Send(oldParent, flipMsg{})
			s.tree.ChildPorts = insertPortSorted(s.tree.ChildPorts, oldParent)
		}
	}
	return api.Round() >= s.deadline
}

// insertPortSorted inserts p into the ascending port list.
func insertPortSorted(ports []int, p int) []int {
	i := len(ports)
	for i > 0 && ports[i-1] > p {
		i--
	}
	ports = append(ports, 0)
	copy(ports[i+1:], ports[i:])
	ports[i] = p
	return ports
}

// Interned empty payloads: the dominant contributions on large parts are
// all-zero, and reusing one boxed value keeps the hot combiners
// allocation-free without changing any message's contents or size.
var (
	zeroPair      congest.Message = pairMsg{}
	zeroColorSums congest.Message = colorSums{}
	emptyDecomp   congest.Message = decompAgg{}
)

// CollectStageI runs Stage I on g and returns the per-node outcomes, the
// assigned ids, and the run result.
func CollectStageI(g *graph.Graph, opts Options, seed int64) ([]*Outcome, []int64, *congest.Result, error) {
	ids := permIDs(g.N(), seed)
	outs := make([]*Outcome, g.N())
	plan := NewStageIPlan(opts, g.N())
	res, err := congest.RunStep(congest.Config{
		Graph:        g,
		Seed:         seed,
		IDs:          ids,
		StopOnReject: true,
		MaxRounds:    1 << 40,
	}, func(node int) congest.StepProgram {
		return plan.NewNode(func(api *congest.StepAPI, out *Outcome) congest.Status {
			outs[api.Index()] = out
			return congest.Done()
		})
	})
	return outs, ids, res, err
}

func removePort(ports *[]int, p int) {
	out := (*ports)[:0]
	for _, q := range *ports {
		if q != p {
			out = append(out, q)
		}
	}
	*ports = out
}
