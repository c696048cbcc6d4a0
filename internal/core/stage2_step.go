package core

import (
	"repro/internal/congest"
	"repro/internal/partition"
)

// This file implements the Stage II planarity check of §2.2 as a
// StepProgram. Parts proceed independently: after one global boundary
// round all communication is intra-part. The schedule per part is:
//
//   - the §2.2.1 preprocessing, the shared PartCtxStep prelude in
//     partctx_step.go: agree on a round budget from the Stage I tree
//     depth, learn intra-part ports and neighbor ids in one boundary
//     round, build the BFS tree T_B^j, and assign edges by level;
//   - count n(G^j) and m(G^j), rejecting at the root on the Euler bound;
//   - embed the part (the Ghaffari–Haeupler substitution, DESIGN.md §3);
//   - label the BFS tree per the embedding (§2.2.2) and exchange labels
//     across non-tree edges;
//   - sample non-tree edges, gather and rebroadcast their label pairs;
//   - check the samples locally for violations (Definition 7).
//
// The per-node state is engine-"cold" (one object per node behind the
// StepProgram interface, see DESIGN.md §8) and every per-wake access goes
// through the slab-backed StepAPI. The script is a linear list of tree
// operations (engine calls of package congest, and the gather's state
// machine), single exchange rounds, and two message-driven label-stream
// windows.
// Local computation lives in stage2.go (embedRotationItems,
// edgePositionsFromRotation, buildSampleChunks, reassembleSamples, ...).

type s2op uint8

const (
	o2Start      s2op = iota // entry: nothing begun yet
	o2CountUp                // cvg: (n, m) counts
	o2CountDown              // bcast: counts + Euler decision
	o2GatherUp               // pipeline: edge list to the root
	o2Scatter                // stream: rotation items down (root embeds)
	o2Labels                 // window: vertex label wave
	o2Exchange               // window: non-tree attachment label swap
	o2SampleUp               // pipeline: sampled label pairs to the root
	o2SampleDown             // stream: samples to the whole part
	o2Finish                 // local: violation checks + verdict
)

// NewStageIINode returns the native Stage II continuation for a node with
// the given Stage I outcome: VerdictReject at nodes holding evidence of
// non-planarity, VerdictAccept at all others. The §2.2.1 preprocessing
// runs as the
// shared PartCtxStep prelude (partctx_step.go) — the same machine the
// minor-free testers chain from — which then hands over to the Stage II
// op script in the same round.
func NewStageIINode(part *partition.Outcome, opts StageIIOptions) congest.StepProgram {
	o := opts.withDefaults()
	c := NewPartCtxStep(part, stageIIHandoff(part, o))
	c.phase = o.partCtxPhase
	return c
}

// stageIIHandoff is the prelude-done callback that becomes the Stage II
// machine; shared by NewStageIINode and the checkpoint-restore path
// (snapshot.go), which must reinstall the exact same continuation.
func stageIIHandoff(part *partition.Outcome, o StageIIOptions) func(api *congest.StepAPI, c *PartCtxStep) congest.Status {
	return func(api *congest.StepAPI, c *PartCtxStep) congest.Status {
		return congest.BecomeStep(&stage2Node{
			part:     part,
			opts:     o,
			budget:   c.budget,
			maxDepth: c.maxDepth,
			intra:    c.intra,
			nbrID:    c.nbrID,
			nbrLvl:   c.nbrLvl,
			tree:     c.tree,
			level:    c.level,
			assigned: c.assigned,
		})
	}
}

type stage2Node struct {
	part *partition.Outcome
	opts StageIIOptions

	pc  s2op // the op in flight (o2Start: none begun)
	pu  congest.PipelineUpStep
	reg congest.Message // result register between dependent ops, nil once consumed

	// Stage II state. edgePos and nbrLabels are port-indexed slices.
	budget    int
	maxDepth  int
	intra     []bool
	nbrID     []int64
	nbrLvl    []int64
	tree      congest.Tree
	level     int64
	assigned  []int
	partN     int64
	partM     int64
	rotPorts  []int
	label     Label
	edgePos   []int32
	nbrLabels []Label

	// Window state (label wave / label exchange). Outgoing labels share
	// the node's own label as their prefix: every child's (or non-tree
	// neighbor's) label differs from it only in the final element, so all
	// chunks but the last slice s.label directly and only the per-port
	// tails live in the tails backing array (see startLabelStream).
	deadline  int
	per       int
	chunks    int
	ci        int
	tails     []int32 // per target: label[tailLo:] + final element
	tailLo    int     // label offset covered by the tails
	streaming bool
	gotAll    bool
	xPorts    []int
	finished  []bool

	// Cached assigned non-tree attachment-label pairs (shared by the
	// sampling and violation-check steps).
	nonTree     []LabeledEdge
	haveNonTree bool

	// Sampling state.
	capChunks int // capEdges * chunksPer truncation bound
	sBudget   int
	samples   []LabeledEdge
	verdict   congest.Verdict
}

// Step advances the linear Stage II script: each wake ends the op in
// flight and begins the next, which may be o2Finish when the part's
// verdict is already known.
func (s *stage2Node) Step(api *congest.StepAPI, inbox []congest.Inbound) congest.Status {
	if s.pc == o2Start {
		// Announce the op-script phase from the entry state, which the
		// first Step leaves — the same resume-safe pattern as
		// PartCtxStep.Step.
		if s.opts.opsPhase != 0 {
			api.PhaseEnter(s.opts.opsPhase)
		}
		s.pc = o2CountUp
	} else if st, done := s.absorb(api, inbox); !done {
		return st
	}
	return s.prepare(api)
}

// prepare begins the op at pc and returns the Status the node yields.
func (s *stage2Node) prepare(api *congest.StepAPI) congest.Status {
	dl := api.Round() + s.budget + 2
	switch s.pc {
	case o2CountUp:
		own := countsMsg{N: 1, M: int64(len(s.assigned))}
		return api.Convergecast(s.tree, api.Round(), dl, own, cmbCounts)
	case o2CountDown:
		c := s.reg.(countsMsg)
		s.reg = nil
		if s.tree.IsRoot() {
			c.Reject = c.N >= 3 && c.M > 3*c.N-6
		}
		return api.Broadcast(s.tree, dl, c)
	case o2GatherUp:
		items := make([]congest.Message, 0, len(s.assigned))
		for _, p := range s.assigned {
			items = append(items, edgeItem{A: api.ID(), B: s.nbrID[p]})
		}
		s.pu.Begin(api, s.tree, api.Round()+int(s.partM)+s.budget+4, items)
		return s.pu.Wake()
	case o2Scatter:
		var out []congest.Message
		strictFail := false
		if s.tree.IsRoot() {
			// The gathered list aliases the gather machine's buffer,
			// which the sample gather reuses: drop it once consumed.
			collected := s.reg.(edgeListMsg).items
			s.reg = nil
			out, strictFail = embedRotationItems(collected, api.ID(), s.partN, s.opts)
			api.ChargeModeledRounds(modeledEmbedRounds(api.N(), s.maxDepth))
		}
		if strictFail {
			out = []congest.Message{embedFail{}}
		}
		return api.Stream(s.tree, api.Round()+int(2*s.partM)+s.budget+6, out)
	case o2Labels:
		s.beginLabels(api)
		return s.labelsWake()
	case o2Exchange:
		s.beginExchange(api)
		return s.exchangeWake()
	case o2SampleUp:
		mt := s.partM - (s.partN - 1)
		want := sampleWant(s.opts, api.N())
		capEdges := int(4*want) + 8
		chunksPer := 2*chunksPerLabelFor(s.budget, s.per) + 2
		s.capChunks = capEdges * chunksPer
		s.sBudget = s.capChunks + s.budget + 6
		var items []congest.Message
		if mt > 0 {
			items = buildSampleChunks(s.assignedNonTree(), want/float64(mt), s.per, api.ID(), api.Rand())
		}
		s.pu.Begin(api, s.tree, api.Round()+s.sBudget, items)
		return s.pu.Wake()
	case o2SampleDown:
		var up []congest.Message
		if s.tree.IsRoot() {
			up = s.reg.(edgeListMsg).items
			s.reg = nil
			if len(up) > s.capChunks {
				// Oversampling tail event: truncate, and clear the
				// dropped entries so the backing array does not
				// keep their chunks live for the whole stream.
				clear(up[s.capChunks:])
				up = up[:s.capChunks]
			}
		}
		return api.Stream(s.tree, api.Round()+s.sBudget, up)
	}
	// o2Finish: a Stage I rejection overrides, and non-rejecting nodes
	// accept.
	v := s.verdict
	if s.part.Rejected {
		v = congest.VerdictReject // already output during Stage I
	}
	if v != congest.VerdictReject {
		api.Output(congest.VerdictAccept)
	}
	return congest.Done()
}

// absorb ends the op at pc with this wake's inbox and sets pc to the next
// op; while the op runs it reports false and the Status to yield.
func (s *stage2Node) absorb(api *congest.StepAPI, inbox []congest.Inbound) (congest.Status, bool) {
	switch s.pc {
	case o2CountUp:
		s.reg = api.Result()
		s.pc = o2CountDown

	case o2CountDown:
		rc := api.Result().(countsMsg)
		s.partN = rc.N
		s.partM = rc.M
		switch {
		case rc.Reject:
			s.decide(api)
		case s.partM == 0 || s.partN <= 2:
			s.verdict = congest.VerdictAccept // trivially planar part
			s.pc = o2Finish
		default:
			s.pc = o2GatherUp
		}

	case o2GatherUp:
		if !s.pu.Feed(api, inbox) {
			return s.pu.Wake(), false
		}
		collected, ok := s.pu.Result()
		if s.tree.IsRoot() && !ok {
			panic("core: edge gather under-budgeted")
		}
		if s.tree.IsRoot() {
			s.reg = edgeListMsg{items: collected}
		}
		s.pc = o2Scatter

	case o2Scatter:
		// Every node of the part reads the root's stream; the index the
		// first reader builds hands each node its own entries.
		rot := api.Shared(indexRotation).(rotationIndex)
		if len(rot.items) == 1 {
			if _, fail := rot.items[0].(embedFail); fail {
				s.decide(api)
				break
			}
		}
		own := rot.at[api.ID()]
		s.rotPorts = rotationPorts(rot.items[own[0]:own[1]], api.ID(), s.intra, s.nbrID)
		s.pc = o2Labels

	case o2Labels:
		if done, st := s.feedLabels(api, inbox); !done {
			return st, false
		}
		s.pc = o2Exchange

	case o2Exchange:
		if done, st := s.feedExchange(api, inbox); !done {
			return st, false
		}
		s.pc = o2SampleUp

	case o2SampleUp:
		if !s.pu.Feed(api, inbox) {
			return s.pu.Wake(), false
		}
		up, _ := s.pu.Result()
		if s.tree.IsRoot() {
			s.reg = edgeListMsg{items: up}
		}
		s.pc = o2SampleDown

	case o2SampleDown:
		// The part's nodes share the root's chunks and one reassembly.
		s.samples = api.Shared(func(items []congest.Message) any {
			return reassembleSamples(items)
		}).([]LabeledEdge)
		s.pc = o2Finish

		// Step K: local violation checks (Definition 7).
		s.verdict = congest.VerdictAccept
	detect:
		for _, m := range s.assignedNonTree() {
			for _, sm := range s.samples {
				if Intersects(m, sm) {
					api.Output(congest.VerdictReject)
					s.verdict = congest.VerdictReject
					break detect
				}
			}
		}
	}
	return congest.Status{}, true
}

// decide ends the part's script on a rejection its root decided (the
// Euler bound or a strict embedding failure): the root rejects, every
// other node accepts.
func (s *stage2Node) decide(api *congest.StepAPI) {
	s.verdict = congest.VerdictAccept
	if s.tree.IsRoot() {
		api.Output(congest.VerdictReject)
		s.verdict = congest.VerdictReject
	}
	s.pc = o2Finish
}

// assignedNonTree returns this node's assigned non-tree attachment-label
// pairs, computed once and cached (the sampling and violation-check
// steps both read it).
func (s *stage2Node) assignedNonTree() []LabeledEdge {
	if !s.haveNonTree {
		s.nonTree = assignedNonTreeEdges(s.assigned, s.tree, s.nbrLabels, s.label, s.edgePos)
		s.haveNonTree = true
	}
	return s.nonTree
}

// edgeListMsg is an internal register wrapper (never sent) for passing an
// item slice between dependent ops.
type edgeListMsg struct{ items []congest.Message }

func (edgeListMsg) Bits() int { return 0 }

// beginLabels starts the label wave that labels the BFS tree per the
// embedding (§2.2.2).
func (s *stage2Node) beginLabels(api *congest.StepAPI) {
	s.edgePos = edgePositionsFromRotation(s.rotPorts, s.tree.ParentPort, api.Degree())
	s.per = labelElemsPerChunkFor(api.BitBound(), api.N())
	s.deadline = api.Round() + (s.budget+1)*(chunksPerLabelFor(s.budget, s.per)+1) + 4
	s.streaming = false
	s.gotAll = false
	if s.tree.IsRoot() {
		s.label = Label{}
		s.startLabelStream(api)
	}
}

// buildTails prepares the per-target tail chunks of an outgoing label
// wave over the given ports: the port's full outgoing label is s.label +
// edgePos[port], so every chunk but the last is a plain prefix slice of
// s.label (shared by all targets and by the in-flight messages — labels
// are immutable once streamed) and only the final chunk, label[tailLo:]
// plus the port's attachment element, needs materializing. All tails
// live in one backing array.
func (s *stage2Node) buildTails(ports []int) {
	llen := len(s.label) + 1
	s.chunks = (llen + s.per - 1) / s.per
	s.tailLo = (s.chunks - 1) * s.per
	tlen := llen - s.tailLo
	// Fresh backing per phase: the previous phase's tail chunks may still
	// sit in a recipient's mailbox at the phase boundary, so the old
	// array must not be overwritten.
	s.tails = make([]int32, 0, len(ports)*tlen)
	for _, p := range ports {
		s.tails = append(append(s.tails, s.label[s.tailLo:]...), s.edgePos[p])
	}
}

// tailChunk returns target k's final chunk.
func (s *stage2Node) tailChunk(k int) []int32 {
	tlen := len(s.label) + 1 - s.tailLo
	return s.tails[k*tlen : (k+1)*tlen]
}

// startLabelStream sends a label to the children: the first chunk goes
// out in the current round, one chunk per round follows.
func (s *stage2Node) startLabelStream(api *congest.StepAPI) {
	s.buildTails(s.tree.ChildPorts)
	s.ci = 0
	s.streaming = true
	s.sendLabelChunk(api)
}

func (s *stage2Node) sendLabelChunk(api *congest.StepAPI) {
	last := s.ci == s.chunks-1
	if !last {
		// Prefix chunk: identical for every child — box one message.
		lo := s.ci * s.per
		m := congest.Message(labelChunk{Elems: s.label[lo : lo+s.per]})
		for _, c := range s.tree.ChildPorts {
			api.Send(c, m)
		}
	} else {
		for i, c := range s.tree.ChildPorts {
			api.Send(c, labelChunk{Elems: s.tailChunk(i), Last: true})
		}
	}
	s.ci++
}

func (s *stage2Node) labelsWake() congest.Status {
	if s.streaming {
		return congest.Running() // one chunk per round (NextRound cadence)
	}
	return congest.Sleep(s.deadline)
}

// feedLabels consumes one wake of the label wave.
func (s *stage2Node) feedLabels(api *congest.StepAPI, inbox []congest.Inbound) (bool, congest.Status) {
	if !s.tree.IsRoot() && !s.gotAll && !s.streaming {
		for _, in := range inbox {
			ch, ok := in.Msg.(labelChunk)
			if !ok || in.Port != s.tree.ParentPort {
				panic("core: unexpected message during labeling")
			}
			s.label = append(s.label, ch.Elems...)
			if ch.Last {
				s.gotAll = true
			}
		}
		if s.gotAll {
			s.startLabelStream(api)
			return false, s.labelsWake()
		}
		if api.Round() >= s.deadline {
			panic("core: label wave under-budgeted")
		}
		return false, congest.Sleep(s.deadline)
	}
	if s.streaming {
		if s.ci < s.chunks {
			s.sendLabelChunk(api)
		} else {
			s.streaming = false // one trailing round
		}
	}
	if !s.streaming && api.Round() >= s.deadline {
		return true, congest.Status{}
	}
	return false, s.labelsWake()
}

// beginExchange starts the non-tree attachment label swap: labels cross
// every non-tree edge. Attachment labels share s.label as their
// prefix exactly like the child labels of the wave, so only the per-port
// tails are materialized (buildTails).
func (s *stage2Node) beginExchange(api *congest.StepAPI) {
	s.nbrLabels = make([]Label, api.Degree())
	s.xPorts = s.xPorts[:0]
	for p, ok := range s.intra {
		if !ok || p == s.tree.ParentPort || isIn(s.tree.ChildPorts, p) {
			continue
		}
		s.xPorts = append(s.xPorts, p)
	}
	s.buildTails(s.xPorts)
	s.deadline = api.Round() + chunksPerLabelFor(s.budget, s.per) + 3
	s.finished = make([]bool, api.Degree())
	s.ci = 0
	s.sendExchangeChunk(api)
}

func (s *stage2Node) sendExchangeChunk(api *congest.StepAPI) {
	if s.ci >= s.chunks {
		return
	}
	last := s.ci == s.chunks-1
	if !last {
		lo := s.ci * s.per
		m := congest.Message(labelChunk{Elems: s.label[lo : lo+s.per]})
		for _, p := range s.xPorts {
			api.Send(p, m)
		}
	} else {
		for k, p := range s.xPorts {
			api.Send(p, labelChunk{Elems: s.tailChunk(k), Last: true})
		}
	}
	s.ci++
}

func (s *stage2Node) exchangeWake() congest.Status {
	if s.ci < s.chunks {
		return congest.Running()
	}
	return congest.Sleep(s.deadline)
}

// feedExchange consumes one wake of the label exchange.
func (s *stage2Node) feedExchange(api *congest.StepAPI, inbox []congest.Inbound) (bool, congest.Status) {
	for _, in := range inbox {
		ch, ok := in.Msg.(labelChunk)
		if !ok {
			panic("core: unexpected message during label exchange")
		}
		s.nbrLabels[in.Port] = append(s.nbrLabels[in.Port], ch.Elems...)
		if ch.Last {
			s.finished[in.Port] = true
		}
	}
	if api.Round() >= s.deadline {
		for _, p := range s.xPorts {
			if !s.finished[p] {
				panic("core: label exchange under-budgeted")
			}
		}
		return true, congest.Status{}
	}
	s.sendExchangeChunk(api)
	return false, s.exchangeWake()
}
