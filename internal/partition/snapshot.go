package partition

// Checkpoint support for the Stage I step interpreter: the message
// declarations of the Stage I vocabulary, the Snapshottable walk of
// stageINode, and the restore entry point on StageIPlan. The encoding
// policy is "every mutable field except derivable scratch": per-op
// scratch buffers (ownEntries, ownWatch, crossScratch)
// are rebuilt from scratch by the next operation that uses them, and the
// boxed activity cache (actMsgRoot/actMsgT/actMsgF) is invalidated by
// construction — rootIDs are always >= 1, so the zero-valued cache key
// after a restore forces a rebuild. The only function-typed field,
// onDone, comes from ResumeNode's caller.

import (
	"fmt"

	"repro/internal/congest"
)

// SnapKindStageI identifies a Stage I interpreter record inside an engine
// checkpoint (congest.Snapshottable.SnapshotKind).
const SnapKindStageI uint16 = 1

// Message kinds 32..63 are reserved for package partition
// (internal/congest uses 1..31, internal/core 64..95).
const (
	msgKindNone uint16 = 32 + iota
	msgKindVal
	msgKindPair
	msgKindRootAnnounce
	msgKindStatus
	msgKindActivity
	msgKindDecompAgg
	msgKindSel
	msgKindFSelect
	msgKindReport
	msgKindChildReport
	msgKindColorSums
	msgKindMark
	msgKindEdgeMarked
	msgKindAttach
	msgKindFlip
	msgKindTrial
)

func init() {
	congest.RegisterMessage(msgKindNone, func(*congest.Snap, *noneMsg) {})
	congest.RegisterMessage(msgKindVal, func(c *congest.Snap, m *valMsg) { c.Varint(&m.V) })
	congest.RegisterMessage(msgKindPair, walkPair)
	congest.RegisterMessage(msgKindRootAnnounce, func(c *congest.Snap, m *rootAnnounce) { c.Varint(&m.Root) })
	congest.RegisterMessage(msgKindStatus, walkStatus)
	congest.RegisterMessage(msgKindActivity, func(c *congest.Snap, m *activityMsg) {
		c.Varint(&m.Root)
		c.Bool(&m.Active)
	})
	congest.RegisterMessage(msgKindDecompAgg, func(c *congest.Snap, m *decompAgg) {
		// The lists are built in reused buffers: their nil-ness is history.
		c.Bool(&m.TooMany)
		congest.SnapList(c, &m.Entries, walkRootWeight)
		congest.SnapList(c, &m.Watch, func(c *congest.Snap, f *rootFlag) {
			c.Varint(&f.Root)
			c.Bool(&f.Active)
		})
	})
	congest.RegisterMessage(msgKindSel, walkSel)
	congest.RegisterMessage(msgKindFSelect, func(c *congest.Snap, m *fSelect) { c.Varint(&m.ChildRoot) })
	congest.RegisterMessage(msgKindReport, func(c *congest.Snap, m *reportMsg) {
		c.Varint(&m.Color)
		c.Varint(&m.Weight)
	})
	congest.RegisterMessage(msgKindChildReport, func(c *congest.Snap, m *childReport) {
		c.Varint(&m.Color)
		c.Varint(&m.Weight)
	})
	congest.RegisterMessage(msgKindColorSums, walkColorSums)
	congest.RegisterMessage(msgKindMark, walkMark)
	congest.RegisterMessage(msgKindEdgeMarked, func(*congest.Snap, *edgeMarked) {})
	congest.RegisterMessage(msgKindAttach, func(*congest.Snap, *attachMsg) {})
	congest.RegisterMessage(msgKindFlip, func(*congest.Snap, *flipMsg) {})
	congest.RegisterMessage(msgKindTrial, func(c *congest.Snap, m *trialMsg) {
		c.Varint(&m.NodeID)
		c.Varint(&m.Target)
		c.Varint(&m.Degree)
	})
}

// The message walks stageINode's registers reuse.

func walkPair(c *congest.Snap, m *pairMsg) {
	c.Varint(&m.A)
	c.Varint(&m.B)
}

func walkStatus(c *congest.Snap, m *statusMsg) {
	c.Bool(&m.Active)
	c.Int64s(&m.Watch)
}

func walkRootWeight(c *congest.Snap, w *rootWeight) {
	c.Varint(&w.Root)
	c.Varint(&w.Weight)
}

func walkSel(c *congest.Snap, m *selMsg) {
	c.Varint(&m.Target)
	c.Varint(&m.Weight)
	c.Bool(&m.HasOut)
}

func walkColorSums(c *congest.Snap, m *colorSums) {
	for i := range m.W {
		c.Varint(&m.W[i])
	}
}

func walkMark(c *congest.Snap, m *markMsg) {
	c.Bool(&m.MarkOut)
	congest.SnapInt(c, &m.InClass, 0, markAllIn)
}

// SnapshotKind implements congest.Snapshottable.
func (s *stageINode) SnapshotKind() uint16 { return SnapKindStageI }

// WalkState implements congest.Snapshottable. Field order is the
// declaration order of stageINode.
func (s *stageINode) WalkState(c *congest.Snap) {
	c.Bool(&s.started)
	c.Bool(&s.finished)
	congest.SnapInt(c, &s.phase, 0, s.plan.phases)
	c.Int(&s.pc)
	c.Int(&s.D)
	c.Int(&s.phasesRun)
	c.Bool(&s.earlyExit)
	c.Varint(&s.rootID)
	c.Tree(&s.tree)
	c.Bool(&s.rejected)
	c.Int64s(&s.nbrRoot)
	c.Bools(&s.cross)
	c.Bool(&s.isU)
	c.Int(&s.uPort)
	c.Bools(&s.fChild)
	c.Int64s(&s.fChildColor)
	c.Int64s(&s.fChildWt)
	c.Bools(&s.fChildMark)
	c.Bool(&s.partHasOut)
	c.Varint(&s.partTarget)
	c.Varint(&s.partWeight)
	c.Bool(&s.partMutual)
	c.Varint(&s.partColor)
	c.Varint(&s.partPreShift)
	c.Bool(&s.partHasKids)
	c.Bool(&s.partOutMkd)
	c.Bool(&s.partInT)
	c.Int(&s.partLevel)
	c.Bool(&s.partContract)
	c.Bool(&s.fdActive)
	c.Bool(&s.fdResolved)
	c.Int64s(&s.watch)
	congest.SnapSlice(c, &s.pending, walkRootWeight)
	congest.SnapSlice(c, &s.outs, walkRootWeight)
	c.Bools(&s.actPort)
	c.Bools(&s.actSeen)
	walkStatus(c, &s.stStatus)
	c.Bool(&s.fdJoined)
	c.Bool(&s.fdDirty)
	c.Uvarint(&s.fdCleanMask)
	c.Bool(&s.fdFF)
	c.Bool(&s.cascFF)
	c.Int(&s.fdFFUntil)
	c.Varint(&s.bestW)
	c.Varint(&s.bestTarget)
	c.Msg(&s.opMsg)
	c.Msg(&s.crossGot)
	walkPair(c, &s.crossPair)
	c.Bool(&s.cascGot)
	walkSel(c, &s.gotSel)
	c.Msg(&s.cvRes)
	c.Varint(&s.dropDec)
	c.Varint(&s.mbParent)
	walkMark(c, &s.mkDec)
	c.Varint(&s.mkPC)
	c.Bool(&s.mkPCOK)
	walkColorSums(c, &s.sums)
	walkPair(c, &s.acc)
	c.Varint(&s.parity)
	c.Varint(&s.newRoot)
	c.Bool(&s.merging)
	c.Bool(&s.flipped)
	c.Int(&s.deadline)
}

// ResumeNode reconstructs one node's Stage I program from a checkpoint
// record written by WalkState. The plan must be compiled from the same
// Options and n as the checkpointed run; onDone plays the role it has in
// NewNode.
func (pl *StageIPlan) ResumeNode(c *congest.Snap, onDone func(api *congest.StepAPI, out *Outcome) congest.Status) (congest.StepProgram, error) {
	s := pl.allocNode()
	s.plan = pl
	s.onDone = onDone
	s.WalkState(c)
	if err := c.Err(); err != nil {
		return nil, err
	}
	if !s.finished && (s.pc < 0 || s.pc >= len(pl.ops)) {
		return nil, fmt.Errorf("%w: stage I pc %d out of range [0,%d)", congest.ErrBadSnapshot, s.pc, len(pl.ops))
	}
	if s.fdJoined && s.phase == 0 {
		return nil, fmt.Errorf("%w: stage I decomposition joined before phase 1", congest.ErrBadSnapshot)
	}
	// The plan's batching counters (fdParticipants/fdStable) are single-run
	// state, so the resumed run's fresh plan rebuilds them here from the
	// decoded nodes. ResumeNode runs before the engine starts, so plain
	// increments suffice. Finished nodes no longer vote: their phase is
	// over and its counter slots are never read again.
	if s.fdJoined && !s.finished && pl.fdParticipants != nil {
		p := s.phase - 1
		pl.fdParticipants[p]++
		for l := 1; l < pl.S && l < 64; l++ {
			if s.fdCleanMask&(1<<uint(l)) != 0 {
				pl.fdStable[p*pl.S+l]++
			}
		}
	}
	// The cascade-window tallies (DESIGN.md §10) rebuild the same way: a
	// root's decoded T-membership, level, and contraction parity imply
	// exactly the tally writes its history performed this phase — level 0
	// and its parity are assigned in the hop-0 entry glue, level L >= 1
	// (and its parity) during hop L-1 of the respective cascade.
	if !s.finished && s.phase >= 1 && s.tree.ParentPort == -1 {
		p := s.phase - 1
		if s.partInT {
			pl.cascInT[p]++
		}
		if L := s.partLevel; L >= 0 && L <= treeHeightBound {
			slot := 0
			if L > 0 {
				slot = L - 1
			}
			pl.lvlAt[p*treeHeightBound+slot]++
			pl.lvlByVal[p*(treeHeightBound+1)+L]++
			if s.parity >= 0 {
				pl.decAt[p*treeHeightBound+slot]++
			}
		}
	}
	return s, nil
}
