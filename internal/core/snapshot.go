package core

// Checkpoint support for the Stage II path: the message declarations of
// the Stage II vocabulary, the Snapshottable walks of PartCtxStep and
// stage2Node, and the ResumeTester entry point that reconstructs a full
// planarity-tester run from an engine checkpoint. Together with the Stage
// I support in internal/partition, every program state the planar tester
// parks in (Stage I interpreter, part-context prelude, Stage II machine)
// round-trips through a checkpoint; the minor-free/hereditary testers'
// gatherEvalNode and the Elkin–Neiman baseline do not implement
// Snapshottable, so those runs report congest.ErrNotSnapshottable and
// simply run without durability.

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/planar"
)

// Program snapshot kinds of package core (internal/partition owns
// SnapKindStageI = 1).
const (
	// SnapKindPartCtx identifies a part-context prelude record.
	SnapKindPartCtx uint16 = 2
	// SnapKindStageII identifies a Stage II machine record.
	SnapKindStageII uint16 = 3
)

// Message kinds 64..95 are reserved for package core
// (internal/congest uses 1..31, internal/partition 32..63).
const (
	msgKindAnnounce uint16 = 64 + iota
	msgKindVal
	msgKindNone
	msgKindBFS
	msgKindChild
	msgKindLvl
	msgKindCounts
	msgKindEdgeItem
	msgKindRotItem
	msgKindEmbedFail
	msgKindLabelChunk
	msgKindSampleChunk
	msgKindEdgeList
)

func init() {
	congest.RegisterMessage(msgKindAnnounce, func(c *congest.Snap, m *announceMsg) {
		c.Varint(&m.PartRoot)
		c.Varint(&m.ID)
	})
	congest.RegisterMessage(msgKindVal, func(c *congest.Snap, m *valMsg) { c.Varint(&m.V) })
	congest.RegisterMessage(msgKindNone, func(*congest.Snap, *noneMsg) {})
	congest.RegisterMessage(msgKindBFS, func(c *congest.Snap, m *bfsMsg) { c.Varint(&m.Level) })
	congest.RegisterMessage(msgKindChild, func(*congest.Snap, *childMsg) {})
	congest.RegisterMessage(msgKindLvl, func(c *congest.Snap, m *lvlMsg) { c.Varint(&m.Level) })
	congest.RegisterMessage(msgKindCounts, func(c *congest.Snap, m *countsMsg) {
		c.Varint(&m.N)
		c.Varint(&m.M)
		c.Bool(&m.Reject)
	})
	congest.RegisterMessage(msgKindEdgeItem, func(c *congest.Snap, m *edgeItem) {
		c.Varint(&m.A)
		c.Varint(&m.B)
	})
	congest.RegisterMessage(msgKindRotItem, func(c *congest.Snap, m *rotItem) {
		c.Varint(&m.Node)
		c.Int32(&m.Idx)
		c.Varint(&m.Nbr)
	})
	congest.RegisterMessage(msgKindEmbedFail, func(*congest.Snap, *embedFail) {})
	congest.RegisterMessage(msgKindLabelChunk, func(c *congest.Snap, m *labelChunk) {
		c.Int32s(&m.Elems)
		c.Bool(&m.Last)
	})
	congest.RegisterMessage(msgKindSampleChunk, func(c *congest.Snap, m **sampleChunk) {
		if c.Decoding() {
			*m = new(sampleChunk)
		}
		s := *m
		c.Varint(&s.Owner)
		c.Int32(&s.EIdx)
		c.Int32(&s.CIdx)
		c.Bool(&s.Last)
		c.Int32s(&s.Elems)
	})
	// edgeListMsg is never sent, but it can sit in a node's result
	// register between dependent ops while the follow-up op is in flight,
	// so it is declared like any parked state.
	congest.RegisterMessage(msgKindEdgeList, func(c *congest.Snap, m *edgeListMsg) { c.Msgs(&m.items) })
}

// walkOutcome walks a partition.Outcome (each Stage II program carries
// its own copy; decoding allocates it).
func walkOutcome(c *congest.Snap, o **partition.Outcome) {
	if c.Decoding() {
		*o = new(partition.Outcome)
	}
	p := *o
	c.Varint(&p.RootID)
	c.Tree(&p.Tree)
	c.Bool(&p.Rejected)
	c.Int(&p.PhasesRun)
	c.Bool(&p.EarlyExit)
}

// walkLabel walks a nil-preserving Label.
func walkLabel(c *congest.Snap, l *Label) { congest.SnapSlice(c, l, (*congest.Snap).Int32) }

// SnapshotKind implements congest.Snapshottable.
func (c *PartCtxStep) SnapshotKind() uint16 { return SnapKindPartCtx }

// WalkState implements congest.Snapshottable. The done callback is not
// walked; the restore entry point reinstalls the Stage II handoff (the
// only callback the planar tester parks with — the minor-free testers'
// continuations are not snapshottable).
func (c *PartCtxStep) WalkState(s *congest.Snap) {
	walkOutcome(s, &c.part)
	congest.SnapInt(s, &c.pc, 0, pcDone)
	s.Msg(&c.reg)
	s.Int(&c.budget)
	s.Int(&c.maxDepth)
	s.Bools(&c.intra)
	s.Int64s(&c.nbrID)
	s.Int64s(&c.nbrLvl)
	s.Tree(&c.tree)
	s.Varint(&c.level)
	s.Ints(&c.assigned)
	s.Int(&c.deadline)
	s.Bool(&c.adopted)
	s.Int(&c.parentPort)
	s.Ints(&c.childPorts)
}

// SnapshotKind implements congest.Snapshottable.
func (s *stage2Node) SnapshotKind() uint16 { return SnapKindStageII }

// WalkState implements congest.Snapshottable. Every mutable field is
// walked except the assigned non-tree cache (nonTree/haveNonTree), which
// is a pure function of walked fields and is recomputed on demand after
// a restore. The obs phase IDs are not walked either (see
// StageIIOptions); every algorithmic option is.
func (s *stage2Node) WalkState(c *congest.Snap) {
	walkOutcome(c, &s.part)
	c.Float64(&s.opts.Epsilon)
	c.Float64(&s.opts.SampleCoeff)
	congest.SnapInt(c, &s.opts.EmbedMode, planar.FallbackArbitrary, planar.FallbackMaxPlanarSubgraph)
	c.Bool(&s.opts.StrictEmbedReject)
	congest.SnapInt(c, &s.pc, 0, o2Finish)
	s.pu.WalkState(c)
	c.Msg(&s.reg)
	c.Int(&s.budget)
	c.Int(&s.maxDepth)
	c.Bools(&s.intra)
	c.Int64s(&s.nbrID)
	c.Int64s(&s.nbrLvl)
	c.Tree(&s.tree)
	c.Varint(&s.level)
	c.Ints(&s.assigned)
	c.Varint(&s.partN)
	c.Varint(&s.partM)
	c.Ints(&s.rotPorts)
	walkLabel(c, &s.label)
	c.Int32s(&s.edgePos)
	congest.SnapSlice(c, &s.nbrLabels, walkLabel)
	c.Int(&s.deadline)
	c.Int(&s.per)
	c.Int(&s.chunks)
	c.Int(&s.ci)
	c.Int32s(&s.tails)
	c.Int(&s.tailLo)
	c.Bool(&s.streaming)
	c.Bool(&s.gotAll)
	c.Ints(&s.xPorts)
	c.Bools(&s.finished)
	c.Int(&s.capChunks)
	c.Int(&s.sBudget)
	congest.SnapSlice(c, &s.samples, func(c *congest.Snap, e *LabeledEdge) {
		walkLabel(c, &e.U)
		walkLabel(c, &e.V)
	})
	congest.SnapUint(c, &s.verdict, congest.VerdictReject)
}

// restoreTester returns the restore callback of a planarity-tester run:
// each record is allocated by its kind, walked, and given the callbacks
// and obs phase IDs the original run installed.
func restoreTester(plan *partition.StageIPlan, o Options) congest.RestoreFunc {
	return func(node int, kind uint16, c *congest.Snap) (congest.StepProgram, error) {
		var p congest.Snapshottable
		switch kind {
		case partition.SnapKindStageI:
			return plan.ResumeNode(c, func(api *congest.StepAPI, po *partition.Outcome) congest.Status {
				return congest.BecomeStep(NewStageIINode(po, o.StageII))
			})
		case SnapKindPartCtx:
			so := o.StageII.withDefaults()
			pc := &PartCtxStep{phase: so.partCtxPhase}
			pc.WalkState(c)
			pc.done = stageIIHandoff(pc.part, so)
			p = pc
		case SnapKindStageII:
			p = &stage2Node{opts: StageIIOptions{
				partCtxPhase: o.StageII.partCtxPhase, opsPhase: o.StageII.opsPhase}}
			p.WalkState(c)
		default:
			return nil, fmt.Errorf("%w: unknown program snapshot kind %d", congest.ErrBadSnapshot, kind)
		}
		if err := c.Err(); err != nil {
			return nil, err
		}
		return p, nil
	}
}

// ResumeTester resumes a checkpointed RunTester execution. The graph,
// options, and seed must be those of the original run (the snapshot
// validates n, m, and carries the seed and node ids itself); data is a
// checkpoint produced via congest.Config.Checkpoint. The resumed run
// continues from the captured barrier and produces a byte-identical
// RunResult with identical Metrics.Rounds.
func ResumeTester(g *graph.Graph, opts Options, seed int64, data []byte) (*RunResult, error) {
	o := opts.withDefaults()
	if o.UseEN {
		return nil, fmt.Errorf("core: resume: %w: Elkin–Neiman runs are not snapshottable", congest.ErrNotSnapshottable)
	}
	plan := partition.NewStageIPlan(o.Partition, g.N())
	res, err := congest.ResumeStep(testerConfig(g, seed, o), data, restoreTester(plan, o))
	return newRunResult(res, err)
}
