package core

// Checkpoint support for the Stage II path: message codecs for the Stage
// II vocabulary, the Snapshottable implementations of PartCtxStep and
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
	"math"

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

// Message codec kinds 64..95 are reserved for package core
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
	congest.RegisterMessageCodec(msgKindAnnounce, announceMsg{},
		func(e *congest.SnapEncoder, m congest.Message) {
			a := m.(announceMsg)
			e.Varint(a.PartRoot)
			e.Varint(a.ID)
		},
		func(d *congest.SnapDecoder) congest.Message {
			return announceMsg{PartRoot: d.Varint(), ID: d.Varint()}
		})
	congest.RegisterMessageCodec(msgKindVal, valMsg{},
		func(e *congest.SnapEncoder, m congest.Message) { e.Varint(m.(valMsg).V) },
		func(d *congest.SnapDecoder) congest.Message { return valMsg{V: d.Varint()} })
	congest.RegisterMessageCodec(msgKindNone, noneMsg{},
		func(e *congest.SnapEncoder, m congest.Message) {},
		func(d *congest.SnapDecoder) congest.Message { return noneMsg{} })
	congest.RegisterMessageCodec(msgKindBFS, bfsMsg{},
		func(e *congest.SnapEncoder, m congest.Message) { e.Varint(m.(bfsMsg).Level) },
		func(d *congest.SnapDecoder) congest.Message { return bfsMsg{Level: d.Varint()} })
	congest.RegisterMessageCodec(msgKindChild, childMsg{},
		func(e *congest.SnapEncoder, m congest.Message) {},
		func(d *congest.SnapDecoder) congest.Message { return childMsg{} })
	congest.RegisterMessageCodec(msgKindLvl, lvlMsg{},
		func(e *congest.SnapEncoder, m congest.Message) { e.Varint(m.(lvlMsg).Level) },
		func(d *congest.SnapDecoder) congest.Message { return lvlMsg{Level: d.Varint()} })
	congest.RegisterMessageCodec(msgKindCounts, countsMsg{},
		func(e *congest.SnapEncoder, m congest.Message) {
			c := m.(countsMsg)
			e.Varint(c.N)
			e.Varint(c.M)
			e.Bool(c.Reject)
		},
		func(d *congest.SnapDecoder) congest.Message {
			return countsMsg{N: d.Varint(), M: d.Varint(), Reject: d.Bool()}
		})
	congest.RegisterMessageCodec(msgKindEdgeItem, edgeItem{},
		func(e *congest.SnapEncoder, m congest.Message) {
			it := m.(edgeItem)
			e.Varint(it.A)
			e.Varint(it.B)
		},
		func(d *congest.SnapDecoder) congest.Message {
			return edgeItem{A: d.Varint(), B: d.Varint()}
		})
	congest.RegisterMessageCodec(msgKindRotItem, rotItem{},
		func(e *congest.SnapEncoder, m congest.Message) {
			r := m.(rotItem)
			e.Varint(r.Node)
			e.Varint(int64(r.Idx))
			e.Varint(r.Nbr)
		},
		func(d *congest.SnapDecoder) congest.Message {
			return rotItem{Node: d.Varint(), Idx: int32(d.Varint()), Nbr: d.Varint()}
		})
	congest.RegisterMessageCodec(msgKindEmbedFail, embedFail{},
		func(e *congest.SnapEncoder, m congest.Message) {},
		func(d *congest.SnapDecoder) congest.Message { return embedFail{} })
	congest.RegisterMessageCodec(msgKindLabelChunk, labelChunk{},
		func(e *congest.SnapEncoder, m congest.Message) {
			c := m.(labelChunk)
			e.Int32s(c.Elems)
			e.Bool(c.Last)
		},
		func(d *congest.SnapDecoder) congest.Message {
			return labelChunk{Elems: d.Int32s(), Last: d.Bool()}
		})
	congest.RegisterMessageCodec(msgKindSampleChunk, &sampleChunk{},
		func(e *congest.SnapEncoder, m congest.Message) {
			c := m.(*sampleChunk)
			e.Varint(c.Owner)
			e.Varint(int64(c.EIdx))
			e.Varint(int64(c.CIdx))
			e.Bool(c.Last)
			e.Int32s(c.Elems)
		},
		func(d *congest.SnapDecoder) congest.Message {
			return &sampleChunk{
				Owner: d.Varint(),
				EIdx:  int32(d.Varint()),
				CIdx:  int32(d.Varint()),
				Last:  d.Bool(),
				Elems: d.Int32s(),
			}
		})
	// edgeListMsg is never sent, but it can sit in a node's result
	// register between dependent ops while the follow-up op is in flight,
	// so it needs a codec like any parked state.
	congest.RegisterMessageCodec(msgKindEdgeList, edgeListMsg{},
		func(e *congest.SnapEncoder, m congest.Message) { e.Msgs(m.(edgeListMsg).items) },
		func(d *congest.SnapDecoder) congest.Message { return edgeListMsg{items: d.Msgs()} })
}

// encOutcome appends a partition.Outcome (each Stage II program carries
// its own copy).
func encOutcome(e *congest.SnapEncoder, o *partition.Outcome) {
	e.Varint(o.RootID)
	e.Tree(o.Tree)
	e.Bool(o.Rejected)
	e.Int(o.PhasesRun)
	e.Bool(o.EarlyExit)
}

func decOutcome(d *congest.SnapDecoder) *partition.Outcome {
	return &partition.Outcome{
		RootID:    d.Varint(),
		Tree:      d.Tree(),
		Rejected:  d.Bool(),
		PhasesRun: d.Int(),
		EarlyExit: d.Bool(),
	}
}

// encLabels appends a nil-preserving [][]int32 (per-port labels).
func encLabels(e *congest.SnapEncoder, ls []Label) {
	if ls == nil {
		e.Uvarint(0)
		return
	}
	e.Uvarint(uint64(len(ls)) + 1)
	for _, l := range ls {
		e.Int32s(l)
	}
}

func decLabels(d *congest.SnapDecoder) []Label {
	n := d.Uvarint()
	if n == 0 || d.Err() != nil {
		return nil
	}
	n--
	if n > uint64(d.Remaining()) {
		d.Int() // force a sticky truncation error via a failed read
		return nil
	}
	ls := make([]Label, 0, n)
	for i := uint64(0); i < n; i++ {
		ls = append(ls, Label(d.Int32s()))
	}
	return ls
}

// encLabeledEdges appends a nil-preserving []LabeledEdge.
func encLabeledEdges(e *congest.SnapEncoder, es []LabeledEdge) {
	if es == nil {
		e.Uvarint(0)
		return
	}
	e.Uvarint(uint64(len(es)) + 1)
	for _, le := range es {
		e.Int32s(le.U)
		e.Int32s(le.V)
	}
}

func decLabeledEdges(d *congest.SnapDecoder) []LabeledEdge {
	n := d.Uvarint()
	if n == 0 || d.Err() != nil {
		return nil
	}
	n--
	if n > uint64(d.Remaining()) {
		d.Int()
		return nil
	}
	es := make([]LabeledEdge, 0, n)
	for i := uint64(0); i < n; i++ {
		es = append(es, LabeledEdge{U: Label(d.Int32s()), V: Label(d.Int32s())})
	}
	return es
}

// SnapshotKind implements congest.Snapshottable.
func (c *PartCtxStep) SnapshotKind() uint16 { return SnapKindPartCtx }

// EncodeState implements congest.Snapshottable. The done callback is not
// serialized; the restore entry point reinstalls the Stage II handoff
// (the only callback the planar tester parks with — the minor-free
// testers' continuations are not snapshottable).
func (c *PartCtxStep) EncodeState(e *congest.SnapEncoder) {
	encOutcome(e, c.part)
	e.Int(int(c.pc))
	e.Bool(c.inOp)
	c.bd.EncodeState(e)
	c.cv.EncodeState(e)
	e.Msg(c.reg)
	e.Int(c.budget)
	e.Int(c.maxDepth)
	e.Bools(c.intra)
	e.Int64s(c.nbrID)
	e.Int64s(c.nbrLvl)
	e.Tree(c.tree)
	e.Varint(c.level)
	e.Ints(c.assigned)
	e.Int(c.deadline)
	e.Bool(c.adopted)
	e.Int(c.parentPort)
	e.Ints(c.childPorts)
}

// resumePartCtx mirrors EncodeState; opts parameterizes the reinstalled
// Stage II handoff exactly as NewStageIINode would.
func resumePartCtx(d *congest.SnapDecoder, opts StageIIOptions) (congest.StepProgram, error) {
	o := opts.withDefaults()
	c := &PartCtxStep{restored: true}
	c.part = decOutcome(d)
	c.done = stageIIHandoff(c.part, o)
	c.phase = o.partCtxPhase
	c.pc = pcOp(d.Int())
	c.inOp = d.Bool()
	c.bd.DecodeState(d)
	c.cv.DecodeState(d)
	c.reg = d.Msg()
	c.budget = d.Int()
	c.maxDepth = d.Int()
	c.intra = d.Bools()
	c.nbrID = d.Int64s()
	c.nbrLvl = d.Int64s()
	c.tree = d.Tree()
	c.level = d.Varint()
	c.assigned = d.Ints()
	c.deadline = d.Int()
	c.adopted = d.Bool()
	c.parentPort = d.Int()
	c.childPorts = d.Ints()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if c.pc > pcDone {
		return nil, fmt.Errorf("core: part-context snapshot: pc %d out of range", c.pc)
	}
	return c, nil
}

// reattach reinstalls the function-typed tree-machine state after a
// restore (the depth probe's per-hop transform and the depth
// convergecast's combiner; every other op runs without functions).
func (c *PartCtxStep) reattach() {
	if !c.inOp {
		return
	}
	switch c.pc {
	case pcDepthDown:
		c.bd.SetTransform(depthTransform)
	case pcDepthUp:
		c.cv.SetCombine(combineMaxVal)
	}
}

// SnapshotKind implements congest.Snapshottable.
func (s *stage2Node) SnapshotKind() uint16 { return SnapKindStageII }

// EncodeState implements congest.Snapshottable. Every mutable field is
// encoded except the assigned non-tree cache (nonTree/haveNonTree), which
// is a pure function of encoded fields and is recomputed on demand after
// a restore.
func (s *stage2Node) EncodeState(e *congest.SnapEncoder) {
	encOutcome(e, s.part)
	e.Uvarint(math.Float64bits(s.opts.Epsilon))
	e.Uvarint(math.Float64bits(s.opts.SampleCoeff))
	e.Int(int(s.opts.EmbedMode))
	e.Bool(s.opts.StrictEmbedReject)
	e.Int(int(s.pc))
	e.Bool(s.inOp)
	s.bd.EncodeState(e)
	s.cv.EncodeState(e)
	s.pu.EncodeState(e)
	s.bid.EncodeState(e)
	e.Msg(s.reg)
	e.Int(s.budget)
	e.Int(s.maxDepth)
	e.Bools(s.intra)
	e.Int64s(s.nbrID)
	e.Int64s(s.nbrLvl)
	e.Tree(s.tree)
	e.Varint(s.level)
	e.Ints(s.assigned)
	e.Varint(s.partN)
	e.Varint(s.partM)
	e.Ints(s.rotPorts)
	e.Int32s(s.label)
	e.Int32s(s.edgePos)
	encLabels(e, s.nbrLabels)
	e.Int(s.deadline)
	e.Int(s.per)
	e.Int(s.chunks)
	e.Int(s.ci)
	e.Int32s(s.tails)
	e.Int(s.tailLo)
	e.Bool(s.streaming)
	e.Bool(s.gotAll)
	e.Ints(s.xPorts)
	e.Bools(s.finished)
	e.Int(s.capChunks)
	e.Int(s.sBudget)
	encLabeledEdges(e, s.samples)
	e.Uvarint(uint64(s.verdict))
}

// resumeStage2 mirrors stage2Node.EncodeState. The caller's opts supply
// only the obs phase IDs (deliberately not serialized — see StageIIOptions);
// every algorithmic option is decoded from the snapshot itself.
func resumeStage2(d *congest.SnapDecoder, opts StageIIOptions) (congest.StepProgram, error) {
	s := &stage2Node{restored: true}
	s.part = decOutcome(d)
	s.opts.Epsilon = math.Float64frombits(d.Uvarint())
	s.opts.SampleCoeff = math.Float64frombits(d.Uvarint())
	s.opts.EmbedMode = planar.FallbackMode(d.Int())
	s.opts.StrictEmbedReject = d.Bool()
	s.opts.partCtxPhase = opts.partCtxPhase
	s.opts.opsPhase = opts.opsPhase
	s.pc = s2op(d.Int())
	s.inOp = d.Bool()
	s.bd.DecodeState(d)
	s.cv.DecodeState(d)
	s.pu.DecodeState(d)
	s.bid.DecodeState(d)
	s.reg = d.Msg()
	s.budget = d.Int()
	s.maxDepth = d.Int()
	s.intra = d.Bools()
	s.nbrID = d.Int64s()
	s.nbrLvl = d.Int64s()
	s.tree = d.Tree()
	s.level = d.Varint()
	s.assigned = d.Ints()
	s.partN = d.Varint()
	s.partM = d.Varint()
	s.rotPorts = d.Ints()
	s.label = d.Int32s()
	s.edgePos = d.Int32s()
	s.nbrLabels = decLabels(d)
	s.deadline = d.Int()
	s.per = d.Int()
	s.chunks = d.Int()
	s.ci = d.Int()
	s.tails = d.Int32s()
	s.tailLo = d.Int()
	s.streaming = d.Bool()
	s.gotAll = d.Bool()
	s.xPorts = d.Ints()
	s.finished = d.Bools()
	s.capChunks = d.Int()
	s.sBudget = d.Int()
	s.samples = decLabeledEdges(d)
	s.verdict = congest.Verdict(d.Uvarint())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if s.pc > o2Finish {
		return nil, fmt.Errorf("core: stage II snapshot: pc %d out of range", s.pc)
	}
	return s, nil
}

// reattach reinstalls the function-typed state a checkpoint cannot carry:
// the counts combiner (the only op that parks with a function installed
// — every Stage II broadcast and stream carries fixed content).
func (s *stage2Node) reattach() {
	if s.inOp && s.pc == o2CountUp {
		s.cv.SetCombine(combineCounts)
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
	res, err := congest.ResumeStep(testerConfig(g, seed, o), data,
		func(node int, kind uint16, d *congest.SnapDecoder) (congest.StepProgram, error) {
			switch kind {
			case partition.SnapKindStageI:
				return plan.ResumeNode(d, func(api *congest.StepAPI, po *partition.Outcome) congest.Status {
					return congest.BecomeStep(NewStageIINode(po, o.StageII))
				})
			case SnapKindPartCtx:
				return resumePartCtx(d, o.StageII)
			case SnapKindStageII:
				return resumeStage2(d, o.StageII)
			}
			return nil, fmt.Errorf("core: unknown program snapshot kind %d", kind)
		})
	return newRunResult(res, err)
}
