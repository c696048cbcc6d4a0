package congest

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/graph"
)

// floodStep is a flood BFS from node 0: every node forwards its distance
// once, the round it first hears one, and all nodes stop at the deadline.
type floodStep struct {
	deadline int
	d        int
	started  bool
	dist     []int
}

func (f *floodStep) Step(api *StepAPI, inbox []Inbound) Status {
	if !f.started {
		f.started = true
		f.d = -1
		if api.Index() == 0 {
			f.d = 0
			api.SendAll(intMsg{0})
		}
		return Sleep(f.deadline)
	}
	if f.d == -1 {
		for _, in := range inbox {
			if m, ok := in.Msg.(intMsg); ok && f.d == -1 {
				f.d = int(m.v) + 1
				api.SendAll(intMsg{int64(f.d)})
			}
		}
	}
	if api.Round() >= f.deadline {
		f.dist[api.Index()] = f.d
		return Done()
	}
	return Sleep(f.deadline)
}

// leaderStep is max-id leader election: every node floods the largest id
// it has seen for a fixed number of rounds.
type leaderStep struct {
	rounds  int
	best    int64
	r       int
	started bool
	out     []int64
}

func (l *leaderStep) Step(api *StepAPI, inbox []Inbound) Status {
	if !l.started {
		l.started = true
		l.best = api.ID()
		api.SendAll(intMsg{l.best})
		return Running()
	}
	for _, in := range inbox {
		if m := in.Msg.(intMsg); m.v > l.best {
			l.best = m.v
		}
	}
	l.r++
	if l.r == l.rounds {
		l.out[api.Index()] = l.best
		return Done()
	}
	api.SendAll(intMsg{l.best})
	return Running()
}

// TestStepEngineEquivalence checks the flood and leader programs against
// values computed directly from the graph: BFS distances, the maximum id,
// and the exact round and message counts of both schedules.
func TestStepEngineEquivalence(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid(6, 7)},
		{"cycle", graph.Cycle(23)},
		{"star", graph.Star(12)},
		{"path", graph.Path(17)},
	}
	for _, fam := range families {
		n, m := fam.g.N(), int64(fam.g.M())
		want := fam.g.BFS(0).Dist
		for seed := int64(0); seed < 3; seed++ {
			const deadline = 300
			dist := make([]int, n)
			res, err := RunStep(Config{Graph: fam.g, Seed: seed}, func(int) StepProgram {
				return &floodStep{deadline: deadline, dist: dist}
			})
			if err != nil {
				t.Fatalf("%s/seed%d flood: %v", fam.name, seed, err)
			}
			if !reflect.DeepEqual(dist, want) {
				t.Fatalf("%s/seed%d flood: distances %v, want %v", fam.name, seed, dist, want)
			}
			// Every node forwards exactly once, over every port.
			if res.Metrics.Rounds != deadline || res.Metrics.Messages != 2*m {
				t.Fatalf("%s/seed%d flood: rounds=%d messages=%d, want %d and %d",
					fam.name, seed, res.Metrics.Rounds, res.Metrics.Messages, deadline, 2*m)
			}

			out := make([]int64, n)
			res, err = RunStep(Config{Graph: fam.g, Seed: seed}, func(int) StepProgram {
				return &leaderStep{rounds: n, out: out}
			})
			if err != nil {
				t.Fatalf("%s/seed%d leader: %v", fam.name, seed, err)
			}
			for v, best := range out {
				// Default ids are a permutation of 1..n.
				if best != int64(n) {
					t.Fatalf("%s/seed%d leader: node %d elected %d, want %d", fam.name, seed, v, best, n)
				}
			}
			// n sending rounds, each over every port.
			if res.Metrics.Rounds != n || res.Metrics.Messages != int64(n)*2*m {
				t.Fatalf("%s/seed%d leader: rounds=%d messages=%d, want %d and %d",
					fam.name, seed, res.Metrics.Rounds, res.Metrics.Messages, n, int64(n)*2*m)
			}
		}
	}
}

// TestTreeStepOpsEquivalence chains a convergecast and a pipelined
// convergecast on a path rooted at node 0 and checks every node's subtree
// sum and the items the root collects.
func TestTreeStepOpsEquivalence(t *testing.T) {
	const n = 9
	g := graph.Path(n)
	sums := make([]int64, n)
	var collected []int64
	_, err := RunStep(Config{Graph: g, Seed: 7}, func(int) StepProgram {
		return &treeOpsProg{n: n, sums: sums, collected: &collected}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sums {
		// The subtree of node i on the path is i..n-1.
		if want := int64((n - 1 + i) * (n - i) / 2); sums[i] != want {
			t.Fatalf("node %d: subtree sum %d, want %d", i, sums[i], want)
		}
	}
	if len(collected) != n {
		t.Fatalf("root collected %v, want %d items", collected, n)
	}
	slices.Sort(collected)
	for i, v := range collected {
		if v != int64(i*10) {
			t.Fatalf("root collected %v, want 0, 10, ..., %d", collected, (n-1)*10)
		}
	}
}

// sumCombine adds intMsg contributions.
var sumCombine = RegisterCombiner(1, func(_ int64, own Message, children []Message) Message {
	s := own.(intMsg).v
	for _, c := range children {
		s += c.(intMsg).v
	}
	return intMsg{v: s}
})

type treeOpsProg struct {
	n         int
	sums      []int64
	collected *[]int64
	phase     int
	pu        PipelineUpStep
	tr        Tree
}

func (p *treeOpsProg) Step(api *StepAPI, inbox []Inbound) Status {
	switch p.phase {
	case 0:
		p.phase = 1
		p.tr = pathTree(api.Index(), p.n)
		return api.Convergecast(p.tr, api.Round(), api.Round()+p.n+2, intMsg{v: int64(api.Index())}, sumCombine)
	case 1:
		p.sums[api.Index()] = api.Result().(intMsg).v
		p.phase = 2
		items := []Message{intMsg{v: int64(api.Index() * 10)}}
		if !p.pu.Begin(api, p.tr, api.Round()+2*p.n+4, items) {
			return p.pu.Wake()
		}
	default:
		if !p.pu.Feed(api, inbox) {
			return p.pu.Wake()
		}
	}
	got, ok := p.pu.Result()
	if p.tr.IsRoot() {
		if !ok {
			panic("pipeline failed")
		}
		for _, m := range got {
			*p.collected = append(*p.collected, m.(intMsg).v)
		}
	}
	return Done()
}

// TestStopOnRejectMidRound verifies that a reject stops the run at the
// next barrier.
func TestStopOnRejectMidRound(t *testing.T) {
	g := graph.Grid(4, 4)
	res, err := RunStep(Config{Graph: g, Seed: 3, StopOnReject: true}, func(int) StepProgram {
		r := 0
		return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
			if r == 100 {
				api.Output(VerdictAccept)
				return Done()
			}
			if api.Index() == 5 && api.Round() == 7 {
				api.Output(VerdictReject)
			}
			api.SendAll(intMsg{int64(r)})
			r++
			return Running()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Rounds != 7 {
		t.Fatalf("rounds = %d, want 7 (stop at first barrier after reject)", res.Metrics.Rounds)
	}
	// Rounds 0..7 each sent over every port; the stop lands before any
	// node accepts.
	if want := int64(8 * 2 * g.M()); res.Metrics.Messages != want {
		t.Fatalf("messages = %d, want %d", res.Metrics.Messages, want)
	}
	if res.RejectCount() != 1 || res.Verdicts[0] != VerdictNone {
		t.Fatalf("verdicts = %v, want one reject and no accepts", res.Verdicts)
	}
}

// TestStepSleepFastForward checks that the engine fast-forwards a native
// sleeper over empty rounds without simulating them.
func TestStepSleepFastForward(t *testing.T) {
	g := graph.Path(3)
	res, err := RunStep(Config{Graph: g, Seed: 4}, func(int) StepProgram {
		started := false
		return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
			if !started {
				started = true
				return Sleep(2_000_000)
			}
			return Done()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Rounds != 2_000_000 {
		t.Fatalf("rounds = %d, want 2000000", res.Metrics.Rounds)
	}
}

// TestStepMessageToDoneDropped checks the dropped-to-done accounting under
// the step model.
func TestStepMessageToDoneDropped(t *testing.T) {
	g := graph.Path(2)
	res, err := RunStep(Config{Graph: g, Seed: 5}, func(node int) StepProgram {
		r := 0
		return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
			if api.Index() == 0 {
				return Done() // terminate immediately
			}
			switch r {
			case 0:
				r++
				return Running()
			case 1:
				r++
				api.Send(0, intMsg{1}) // node 0 is done by now
				return Running()
			default:
				return Done()
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.DroppedToDone != 1 {
		t.Fatalf("dropped = %d, want 1", res.Metrics.DroppedToDone)
	}
}

// TestStepPanicPropagates checks that a panic inside a native Step is
// converted into a run error naming the node and round.
func TestStepPanicPropagates(t *testing.T) {
	g := graph.Path(4)
	_, err := RunStep(Config{Graph: g, Seed: 6}, func(int) StepProgram {
		return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
			if api.Index() == 2 && api.Round() == 3 {
				panic("boom")
			}
			return Running()
		})
	})
	if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "round 3") {
		t.Fatalf("want propagated panic with round, got %v", err)
	}
}

// TestStepBitBoundViolation checks bound enforcement on the step path.
func TestStepBitBoundViolation(t *testing.T) {
	g := graph.Path(2)
	_, err := RunStep(Config{Graph: g, Seed: 7}, func(int) StepProgram {
		return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
			if api.Index() == 0 && api.Round() == 0 {
				api.Send(0, hugeMsg{})
			}
			return Running()
		})
	})
	if err == nil || !strings.Contains(err.Error(), "bound") {
		t.Fatalf("want bit bound error, got %v", err)
	}
}

// sumFlood floods x and adds up what arrives until round total, then
// accepts. With split > 0 it hands the node over to a fresh sumFlood at
// round split, before reading that round's inbox.
type sumFlood struct {
	x            int64
	r            int
	split, total int
}

func (s *sumFlood) Step(api *StepAPI, inbox []Inbound) Status {
	if s.split > 0 && s.r == s.split {
		return BecomeStep(&sumFlood{x: s.x, r: s.r, total: s.total})
	}
	for _, in := range inbox {
		s.x += in.Msg.(intMsg).v
	}
	if s.r == s.total {
		api.Output(VerdictAccept)
		return Done()
	}
	api.SendAll(intMsg{s.x})
	s.r++
	return Running()
}

// TestBecomeMidRun checks the BecomeStep handover: the continuation
// starts in the same round, and the combined program behaves exactly like
// the same schedule written as one state machine.
func TestBecomeMidRun(t *testing.T) {
	g := graph.Cycle(9)
	run := func(split int) *Result {
		res, err := RunStep(Config{Graph: g, Seed: 9}, func(node int) StepProgram {
			return &sumFlood{x: int64(node), split: split, total: 12}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	whole, handover := run(0), run(5)
	if !reflect.DeepEqual(whole, handover) {
		t.Fatalf("handover mismatch:\none machine: %+v\nhandover:    %+v", whole, handover)
	}
	if whole.Metrics.Rounds != 12 || !whole.Accepted() {
		t.Fatalf("rounds = %d, accepted = %v; want 12 rounds and all accept", whole.Metrics.Rounds, whole.Accepted())
	}
}

// TestStatusFitsInRegisters guards Status's register budget: a Status
// over 32 bytes is spilled and reloaded after every Step call, stalling
// every wake (see the Status doc comment and DESIGN.md §8).
func TestStatusFitsInRegisters(t *testing.T) {
	if size := unsafe.Sizeof(Status{}); size > 32 {
		t.Fatalf("unsafe.Sizeof(Status{}) = %d bytes, want <= 32", size)
	}
}
