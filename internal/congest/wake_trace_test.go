package congest

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
)

// Wake-trace determinism: every node logs each wake's round and inbox
// (sender, payload), and the logs and Results must be identical at
// Workers 1, 2 and 4. The program is built to reach every scheduling
// path of the engine: pooled barriers of more than 10^4 nodes, due
// lists taken straight from the round+1 list and from a calendar
// bucket, merged due lists with stale and duplicate calendar entries
// (mail wakes nodes before their deadline and they re-park elsewhere),
// Sleep targets of round+1 and random rounds, common-deadline bursts, a
// wake past round 2^31, and nodes finishing while mail is addressed to
// them.

const (
	wtBurst = 100        // every node is due here
	wtQuiet = 150        // ... and here, from one calendar bucket
	wtCalm  = 340        // the random phase's sparse tail
	wtEnd   = 400        // end of the random phase
	wtFar   = 1<<31 + 77 // the last wakes, past int32 rounds
	wtSize  = 100 * 110  // nodes of the wake-trace grid
)

func wtHash(node, round int) uint64 {
	z := uint64(node)<<32 ^ uint64(round) + 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// wakeTraceStep is the test program; its behavior depends only on its
// node index, the round and its inbox. panicAt, when set, makes the
// listed nodes panic at round wtQuiet after the given wall delay.
type wakeTraceStep struct {
	node    int
	log     []int64
	panicAt map[int]time.Duration
}

func (s *wakeTraceStep) Step(api *StepAPI, inbox []Inbound) Status {
	r := api.Round()
	s.log = append(s.log, int64(r), int64(len(inbox)))
	for _, in := range inbox {
		s.log = append(s.log, int64(in.From), in.Msg.(intMsg).v)
	}
	h := wtHash(s.node, r)
	send := func() {
		api.Send(int(h>>8%uint64(api.Degree())), intMsg{int64(s.node)<<20 | int64(r&0xFFFFF)})
	}
	switch {
	case r == 0:
		if h%5 == 0 {
			send()
		}
		return Sleep(wtBurst)
	case r < wtBurst:
		// Woken before the burst, by mail or by an earlier re-park.
		if h%7 == 0 {
			send()
		}
		if h%3 == 0 {
			return Sleep(min(r+1+int(h>>16%30), wtBurst))
		}
		return Sleep(wtBurst)
	case r == wtBurst:
		return Sleep(wtQuiet) // no sends: the next barrier is wtQuiet
	case r < wtEnd:
		if d, ok := s.panicAt[s.node]; ok && r == wtQuiet {
			time.Sleep(d)
			panic("wake-trace panic")
		}
		if r >= 300 && h%41 == 0 {
			api.Output(VerdictAccept)
			return Done()
		}
		if r >= wtCalm {
			// No mail and no round+1 parks: every wake comes from the
			// calendar, whose buckets hold stale entries of nodes that
			// mail woke early and that finished or re-parked later.
			return Sleep(min(r+2+int(h>>28%25), wtEnd))
		}
		if h%4 == 0 {
			send()
		}
		switch c := h >> 20 % 20; {
		case c < 6:
			return Running()
		case c < 10:
			return Sleep(r + 1)
		case c < 16:
			return Sleep(min(r+2+int(h>>28%25), wtEnd))
		case c < 19:
			return Sleep(min((r/50+1)*50, wtEnd)) // common-deadline burst
		default:
			return Sleep(wtEnd)
		}
	case r < wtFar:
		return Sleep(wtFar)
	case r < wtFar+3:
		return Running()
	default:
		api.Output(VerdictAccept)
		return Done()
	}
}

// mergeCounter is a trace sink counting pooled barriers by merge kind.
type mergeCounter struct {
	mu    sync.Mutex
	kinds map[string]int
}

func (c *mergeCounter) Emit(ev obs.Event) {
	if ev.Event != "merge" {
		return
	}
	c.mu.Lock()
	c.kinds[ev.Merge]++
	c.mu.Unlock()
}

func runWakeTrace(t *testing.T, g *graph.Graph, workers int, panicAt map[int]time.Duration, sink obs.TraceSink) (*Result, [][]int64, error) {
	t.Helper()
	progs := make([]*wakeTraceStep, g.N())
	res, err := RunStep(Config{Graph: g, Seed: 5, Workers: workers, MaxRounds: 1 << 40, Trace: sink},
		func(i int) StepProgram {
			progs[i] = &wakeTraceStep{node: i, panicAt: panicAt}
			return progs[i]
		})
	logs := make([][]int64, len(progs))
	for i, p := range progs {
		logs[i] = p.log
	}
	return res, logs, err
}

func TestWakeTraceDeterminism(t *testing.T) {
	g := graph.Grid(100, 110)
	if g.N() != wtSize {
		t.Fatalf("grid has %d nodes", g.N())
	}
	base, baseLogs, err := runWakeTrace(t, g, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if base.Metrics.Rounds != wtFar+3 || !base.Accepted() {
		t.Fatalf("run ended at round %d (accepted %v), want %d", base.Metrics.Rounds, base.Accepted(), wtFar+3)
	}
	if base.Metrics.DroppedToDone == 0 {
		t.Fatal("no message was sent to a finished node")
	}
	for _, w := range []int{2, 4} {
		mc := &mergeCounter{kinds: map[string]int{}}
		res, logs, err := runWakeTrace(t, g, w, nil, mc)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if mc.kinds["sharded"] == 0 || mc.kinds["sequential"] == 0 {
			t.Fatalf("workers=%d: pooled merges %v, want both kinds", w, mc.kinds)
		}
		if !reflect.DeepEqual(res, base) {
			t.Fatalf("workers=%d: Result differs:\nworkers=1: %+v\nworkers=%d: %+v", w, base.Metrics, w, res.Metrics)
		}
		for i := range logs {
			if !reflect.DeepEqual(logs[i], baseLogs[i]) {
				t.Fatalf("workers=%d: node %d wake log differs:\nworkers=1: %v\nworkers=%d: %v",
					w, i, baseLogs[i], w, logs[i])
			}
		}
	}

	// Two panics in one pooled barrier (every node is due at wtQuiet,
	// so due positions are node indices), in different blocks at every
	// worker count. The lower position panics last in wall time, after
	// the worker stepping the higher one has stopped; it must still
	// decide the run error.
	panicAt := map[int]time.Duration{680: 20 * time.Millisecond, 5000: 0}
	_, _, seqErr := runWakeTrace(t, g, 1, panicAt, nil)
	if seqErr == nil || !strings.Contains(seqErr.Error(), "node 680 ") {
		t.Fatalf("sequential: unexpected error %v", seqErr)
	}
	for _, w := range []int{2, 4} {
		_, _, err := runWakeTrace(t, g, w, panicAt, nil)
		if err == nil || err.Error() != seqErr.Error() {
			t.Fatalf("workers=%d: error mismatch:\nworkers=1: %v\nworkers=%d: %v", w, seqErr, w, err)
		}
	}
}
