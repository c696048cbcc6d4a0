package congest

// Engine-side observability (internal/obs): per-phase attribution,
// progress publishing, and trace emission. Everything here is gated on
// Config.Probe / Config.Trace being set — a run without them executes
// one nil check per barrier and allocates nothing, which is the
// zero-overhead-when-disabled contract the bench gate pins.
//
// Determinism: phase announcements are written by nodes into the pReq
// slab during Step (each node touches only its own slot, so the compute
// phase stays race-free under parallel workers) and folded by the
// engine loop at the barrier, in due (ascending node index) order, with
// the last announcement winning — the same order the sequential engine
// would observe. Every accumulated column except WallNs is therefore
// byte-identical across Workers values, with tracing on or off, and
// under kill-and-resume (the snapshot carries the folded accumulators).

import (
	"math"
	"time"

	"repro/internal/obs"
)

// initObs installs the run's probe, trace sink, and progress cell, and
// allocates the probe slabs. Called once before the scheduler loop by
// RunStep and ResumeStep.
func (e *engine) initObs(cfg Config) {
	e.probe, e.trace, e.progress = cfg.Probe, cfg.Trace, cfg.Progress
	if e.probe == nil && e.trace == nil {
		return
	}
	now := time.Now()
	e.runStart = now
	e.pLastStamp = now
	if e.probe != nil {
		e.pReq = make([]int32, e.n)
		e.pWinMsgs = make([]int64, e.n)
		e.pWinBits = make([]int64, e.n)
		e.pWinCnt = make([]int64, e.n)
		e.pAdj = make([][]phaseCharge, e.n)
		e.pStat(int32(len(e.probe.Names()) - 1)) // size for pre-interned phases
		e.pLastMsgs, e.pLastBits = e.m.Messages, e.m.TotalBits
	}
	if e.trace != nil {
		e.trace.Emit(obs.Event{Event: "run_start", Round: int64(e.round), Barrier: e.barriers,
			N: int64(e.n), M: int64(e.g.M()), Seed: e.seed, Workers: int64(e.workers)})
		if e.probe != nil {
			e.pSeg = *e.pStat(e.pPhase)
		}
	}
}

// pStat returns the accumulator of phase id, growing the table as
// needed (ids are interned before the run, so growth normally happens
// once, in initObs).
func (e *engine) pStat(id int32) *obs.PhaseStat {
	for int(id) >= len(e.pStats) {
		e.pStats = append(e.pStats, obs.PhaseStat{})
	}
	return &e.pStats[id]
}

// phaseMark records a phase switch: the barrier at round became the
// first one charged to phase.
type phaseMark struct {
	round int64
	phase int32
}

// phaseCharge is traffic attributed to a phase other than the folding
// barrier's (an elided relay sent at an earlier round).
type phaseCharge struct {
	phase      int32
	msgs, bits int64
}

// probeTouched reports whether stepped node i left attribution state
// for foldProbe: a phase announcement, a fast-forward window, or relays
// charged to earlier rounds' phases. Each step path records such nodes
// in its block's probed list, so the fold visits only them.
func (e *engine) probeTouched(i int32) bool {
	return e.pReq[i] != 0 || e.pWinCnt[i] != 0 || len(e.pAdj[i]) != 0
}

// foldProbe is the per-barrier attribution step, called by the
// scheduler loop right after a barrier of wakes due nodes completes
// (before any checkpoint, so snapshots capture folded state). It
// applies phase announcements in due order, then charges the barrier's
// wakes, traffic deltas (routed and charged), fast-forward windows, and
// wall time to the resulting current phase — except the elided relays
// whose literal send rounds precede this barrier, which go to the
// phases of those rounds (pAdj). It visits only the blocks' probed
// nodes, in due order; every other due node left nothing to fold.
func (e *engine) foldProbe(wakes int) {
	blocks := e.blocks[:e.nblk]
	for _, bp := range blocks {
		for _, i := range bp.probed {
			if r := e.pReq[i]; r != 0 {
				e.pReq[i] = 0
				if r != e.pPhase {
					e.switchPhase(r)
				}
			}
		}
	}
	var wMsgs, wBits, wCnt, adjMsgs, adjBits int64
	for _, bp := range blocks {
		for _, i := range bp.probed {
			if c := e.pWinCnt[i]; c != 0 {
				wCnt += c
				wMsgs += e.pWinMsgs[i]
				wBits += e.pWinBits[i]
				e.pWinCnt[i], e.pWinMsgs[i], e.pWinBits[i] = 0, 0, 0
			}
			for _, a := range e.pAdj[i] {
				ps := e.pStat(a.phase)
				ps.Messages += a.msgs
				ps.Bits += a.bits
				adjMsgs += a.msgs
				adjBits += a.bits
			}
			e.pAdj[i] = e.pAdj[i][:0]
		}
	}
	st := e.pStat(e.pPhase)
	st.Barriers++
	st.Wakes += int64(wakes)
	st.Messages += e.m.Messages - e.pLastMsgs - adjMsgs
	st.Bits += e.m.TotalBits - e.pLastBits - adjBits
	e.pLastMsgs, e.pLastBits = e.m.Messages, e.m.TotalBits
	if wCnt != 0 {
		// The windows' traffic is already in the Metrics delta above:
		// the barrier merge folded the charges with the routed sends.
		st.Windows += wCnt
		if e.trace != nil {
			e.trace.Emit(obs.Event{Event: "fast_forward", Round: int64(e.round), Barrier: e.barriers,
				Phase: e.phaseName(e.pPhase), Windows: wCnt, Messages: wMsgs, Bits: wBits})
		}
	}
	now := time.Now()
	st.WallNs += now.Sub(e.pLastStamp).Nanoseconds()
	e.pLastStamp = now
}

// switchPhase closes the current phase segment (emitting its trace
// deltas) and makes `to` current. The barrier being folded is charged
// to the new phase: a phase's announcing wake executes the phase's
// first op, so its cost belongs to the entered phase.
func (e *engine) switchPhase(to int32) {
	if e.trace != nil {
		e.traceSegment()
	}
	e.pPhase = to
	e.pStat(to)
	e.pMarks = append(e.pMarks, phaseMark{round: int64(e.round), phase: to})
	if e.trace != nil {
		e.trace.Emit(obs.Event{Event: "phase_enter", Phase: e.phaseName(to),
			Round: int64(e.round), Barrier: e.barriers})
		e.pSeg = *e.pStat(to)
	}
}

// traceSegment emits a phase_exit event carrying the current phase's
// accumulation since its segment started (a phase re-entered later gets
// a fresh segment; trace_report sums segments per phase).
func (e *engine) traceSegment() {
	cur := *e.pStat(e.pPhase)
	e.trace.Emit(obs.Event{
		Event:    "phase_exit",
		Phase:    e.phaseName(e.pPhase),
		Round:    int64(e.round),
		Barrier:  e.barriers,
		WallNs:   cur.WallNs - e.pSeg.WallNs,
		Wakes:    cur.Wakes - e.pSeg.Wakes,
		Barriers: cur.Barriers - e.pSeg.Barriers,
		Messages: cur.Messages - e.pSeg.Messages,
		Bits:     cur.Bits - e.pSeg.Bits,
		Windows:  cur.Windows - e.pSeg.Windows,
	})
}

func (e *engine) phaseName(id int32) string {
	if e.probe == nil {
		return "run"
	}
	return e.probe.Name(obs.PhaseID(id))
}

// finishObs closes the run's instrumentation after the scheduler loop
// ended and the final Metrics are summed: it charges the tail wall
// time, emits the closing trace events (abort on error, then run_end
// with the final totals), and returns the PhaseBreakdown (nil when no
// probe was configured).
func (e *engine) finishObs() obs.PhaseBreakdown {
	if e.probe == nil && e.trace == nil {
		return nil
	}
	var bd obs.PhaseBreakdown
	if e.probe != nil {
		now := time.Now()
		st := e.pStat(e.pPhase)
		st.WallNs += now.Sub(e.pLastStamp).Nanoseconds()
		e.pLastStamp = now
		names := e.probe.Names()
		e.pStat(int32(len(names) - 1))
		bd = make(obs.PhaseBreakdown, len(names))
		for id, name := range names {
			bd[id] = e.pStats[id]
			bd[id].Name = name
		}
	}
	if e.trace != nil {
		if e.probe != nil {
			e.traceSegment()
		}
		if e.runErr != nil {
			e.trace.Emit(obs.Event{Event: "abort", Round: int64(e.round),
				Barrier: e.barriers, Err: e.runErr.Error()})
		}
		e.trace.Emit(obs.Event{Event: "run_end", Round: int64(e.round), Barrier: e.barriers,
			Barriers: e.barriers, Messages: e.m.Messages, Bits: e.m.TotalBits,
			WallNs: time.Since(e.runStart).Nanoseconds()})
	}
	return bd
}

// walkObsSection walks the attribution state of a snapshot: the
// interned phase names (in PhaseID order), the per-phase accumulators,
// the current phase and the phase history. The presence flag is always
// walked, so the layout is identical with and without a probe. WallNs is
// carried so a resumed run's breakdown approximates the continuous run's
// wall column; every other column is exact (and pinned byte-identical by
// the instrumentation-soundness test). Decoding re-interns the phase
// names through the resumed run's probe (so IDs stay correct even if the
// resumed run interned phases in a different order); when the resumed
// run has no probe the section is decoded and discarded.
func (e *engine) walkObsSection(c *Snap) {
	on := e.probe != nil
	c.Bool(&on)
	if !on {
		return
	}
	var names []string
	var stats []obs.PhaseStat
	var cur uint64
	var marks []phaseMark
	if !c.dec {
		names = e.probe.Names()
		e.pStat(int32(len(names) - 1))
		stats, cur, marks = e.pStats[:len(names)], uint64(e.pPhase), e.pMarks
	}
	count := len(names)
	c.count(&count)
	if c.dec && c.err == nil {
		names, stats = make([]string, count), make([]obs.PhaseStat, count)
	}
	for i := range names {
		b := []byte(names[i])
		if c.Bytes(&b); c.dec {
			names[i] = string(b)
		}
	}
	for i := range stats {
		st := &stats[i]
		for _, f := range []*int64{&st.WallNs, &st.Wakes, &st.Barriers, &st.Messages, &st.Bits, &st.Windows} {
			c.Varint(f)
		}
	}
	c.Uvarint(&cur)
	nMarks := len(marks)
	c.count(&nMarks)
	if c.dec && c.err == nil {
		marks = make([]phaseMark, nMarks)
	}
	for i := range marks {
		SnapUint(c, &marks[i].round, math.MaxInt64)
		SnapUint(c, &marks[i].phase, int32(count-1))
	}
	if !c.dec || c.err != nil || e.probe == nil {
		return
	}
	ids := make([]int32, count)
	for i, name := range names {
		ids[i] = int32(e.probe.Phase(name))
		*e.pStat(ids[i]) = stats[i]
	}
	if cur < uint64(count) {
		e.pPhase = ids[cur]
	}
	for _, m := range marks {
		e.pMarks = append(e.pMarks, phaseMark{round: m.round, phase: ids[m.phase]})
	}
}
