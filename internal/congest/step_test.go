package congest

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/graph"
)

// floodStep is the step-model mirror of the blocking flood-BFS program in
// TestFloodBFSOnGrid: round-exact sends, so both models must produce
// byte-identical Results.
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

func floodBlocking(deadline int, dist []int) Program {
	return func(api *API) {
		d := -1
		if api.Index() == 0 {
			d = 0
			api.SendAll(intMsg{0})
			api.Idle(deadline - api.Round())
		} else {
			for d == -1 && api.Round() < deadline {
				for _, in := range api.SleepUntil(deadline) {
					if m, ok := in.Msg.(intMsg); ok && d == -1 {
						d = int(m.v) + 1
						api.SendAll(intMsg{int64(d)})
					}
				}
			}
			api.Idle(deadline - api.Round())
		}
		dist[api.Index()] = d
	}
}

// leaderStep mirrors the blocking max-id leader election round for round.
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

// TestStepEngineEquivalence proves both execution models produce
// byte-identical Results for logically identical programs across several
// graph families (issue acceptance criterion).
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
		for seed := int64(0); seed < 3; seed++ {
			const deadline = 300
			bDist := make([]int, fam.g.N())
			bRes, bErr := Run(Config{Graph: fam.g, Seed: seed}, floodBlocking(deadline, bDist))
			sDist := make([]int, fam.g.N())
			sRes, sErr := RunStep(Config{Graph: fam.g, Seed: seed}, func(int) StepProgram {
				return &floodStep{deadline: deadline, dist: sDist}
			})
			if bErr != nil || sErr != nil {
				t.Fatalf("%s/seed%d: errs %v %v", fam.name, seed, bErr, sErr)
			}
			if !reflect.DeepEqual(bRes, sRes) {
				t.Fatalf("%s/seed%d flood: result mismatch:\nblocking: %+v\nstep:     %+v",
					fam.name, seed, bRes, sRes)
			}
			if !reflect.DeepEqual(bDist, sDist) {
				t.Fatalf("%s/seed%d flood: distances differ", fam.name, seed)
			}

			rounds := fam.g.N()
			bOut := make([]int64, fam.g.N())
			bRes, bErr = Run(Config{Graph: fam.g, Seed: seed}, func(api *API) {
				best := api.ID()
				for r := 0; r < rounds; r++ {
					api.SendAll(intMsg{best})
					for _, in := range api.NextRound() {
						if m := in.Msg.(intMsg); m.v > best {
							best = m.v
						}
					}
				}
				bOut[api.Index()] = best
			})
			sOut := make([]int64, fam.g.N())
			sRes, sErr = RunStep(Config{Graph: fam.g, Seed: seed}, func(int) StepProgram {
				return &leaderStep{rounds: rounds, out: sOut}
			})
			if bErr != nil || sErr != nil {
				t.Fatalf("%s/seed%d: errs %v %v", fam.name, seed, bErr, sErr)
			}
			if !reflect.DeepEqual(bRes, sRes) {
				t.Fatalf("%s/seed%d leader: result mismatch:\nblocking: %+v\nstep:     %+v",
					fam.name, seed, bRes, sRes)
			}
			if !reflect.DeepEqual(bOut, sOut) {
				t.Fatalf("%s/seed%d leader: winners differ", fam.name, seed)
			}
		}
	}
}

// treeOpsStep exercises the step-native tree primitives (convergecast then
// pipelined convergecast) against their blocking counterparts.
func TestTreeStepOpsEquivalence(t *testing.T) {
	const n = 9
	g := graph.Path(n)
	run := func(step bool) (*Result, int64, []int64) {
		var rootSum int64
		var collected []int64
		blocking := func(api *API) {
			tr := pathTree(api.Index(), n)
			deadline := api.Round() + n + 2
			own := intMsg{v: int64(api.Index())}
			agg, ok := tr.Convergecast(api, deadline, own, sumCombine)
			if !ok {
				panic("convergecast failed")
			}
			if tr.IsRoot() {
				rootSum = agg.(intMsg).v
			}
			items := []Message{intMsg{v: int64(api.Index() * 10)}}
			got, ok := tr.PipelineUp(api, api.Round()+2*n+4, items)
			if !ok {
				panic("pipeline failed")
			}
			if tr.IsRoot() {
				for _, m := range got {
					collected = append(collected, m.(intMsg).v)
				}
			}
		}
		var res *Result
		var err error
		if !step {
			res, err = Run(Config{Graph: g, Seed: 7}, blocking)
		} else {
			res, err = RunStep(Config{Graph: g, Seed: 7}, func(int) StepProgram {
				return &treeOpsProg{n: n, rootSum: &rootSum, collected: &collected}
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		return res, rootSum, collected
	}
	bRes, bSum, bCol := run(false)
	sRes, sSum, sCol := run(true)
	if !reflect.DeepEqual(bRes, sRes) {
		t.Fatalf("tree ops: result mismatch:\nblocking: %+v\nstep:     %+v", bRes, sRes)
	}
	if bSum != sSum || !reflect.DeepEqual(bCol, sCol) {
		t.Fatalf("tree ops: outputs differ: %d/%v vs %d/%v", bSum, bCol, sSum, sCol)
	}
}

func sumCombine(own Message, children []Message) Message {
	s := own.(intMsg).v
	for _, c := range children {
		s += c.(intMsg).v
	}
	return intMsg{v: s}
}

type treeOpsProg struct {
	n         int
	rootSum   *int64
	collected *[]int64
	phase     int
	cv        ConvergecastStep
	pu        PipelineUpStep
	tr        Tree
	started   bool
}

func (p *treeOpsProg) Step(api *StepAPI, inbox []Inbound) Status {
	for {
		switch p.phase {
		case 0:
			if !p.started {
				p.started = true
				p.tr = pathTree(api.Index(), p.n)
				own := intMsg{v: int64(api.Index())}
				if !p.cv.Begin(api, p.tr, api.Round()+p.n+2, own, sumCombine) {
					return p.cv.Wake()
				}
			} else if !p.cv.Feed(api, inbox) {
				return p.cv.Wake()
			}
			agg, ok := p.cv.Result()
			if !ok {
				panic("convergecast failed")
			}
			if p.tr.IsRoot() {
				*p.rootSum = agg.(intMsg).v
			}
			p.phase = 1
			p.started = false
		case 1:
			if !p.started {
				p.started = true
				items := []Message{intMsg{v: int64(api.Index() * 10)}}
				if !p.pu.Begin(api, p.tr, api.Round()+2*p.n+4, items) {
					return p.pu.Wake()
				}
			} else if !p.pu.Feed(api, inbox) {
				return p.pu.Wake()
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
	}
}

// TestStopOnRejectMidRound verifies that a reject stops the run at the
// next barrier in both execution models, with identical metrics.
func TestStopOnRejectMidRound(t *testing.T) {
	g := graph.Grid(4, 4)
	blocking := func(api *API) {
		for r := 0; r < 100; r++ {
			if api.Index() == 5 && api.Round() == 7 {
				api.Output(VerdictReject)
			}
			api.SendAll(intMsg{int64(r)})
			api.NextRound()
		}
		api.Output(VerdictAccept)
	}
	bRes, err := Run(Config{Graph: g, Seed: 3, StopOnReject: true}, blocking)
	if err != nil {
		t.Fatal(err)
	}
	if bRes.Metrics.Rounds != 7 {
		t.Fatalf("blocking rounds = %d, want 7 (stop at first barrier after reject)", bRes.Metrics.Rounds)
	}
	sRes, err := RunStep(Config{Graph: g, Seed: 3, StopOnReject: true}, func(int) StepProgram {
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
	if !reflect.DeepEqual(bRes, sRes) {
		t.Fatalf("stop-on-reject mismatch:\nblocking: %+v\nstep:     %+v", bRes, sRes)
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

// TestBecomeMidRun checks the native-to-blocking handover: the blocking
// continuation starts in the same round and the combined program behaves
// exactly like its all-blocking equivalent.
func TestBecomeMidRun(t *testing.T) {
	g := graph.Cycle(9)
	const split = 5
	const total = 12
	blocking := func(api *API) {
		x := api.ID()
		for r := 0; r < total; r++ {
			api.SendAll(intMsg{x})
			for _, in := range api.NextRound() {
				x += in.Msg.(intMsg).v
			}
		}
		api.Output(VerdictAccept)
	}
	bRes, err := Run(Config{Graph: g, Seed: 9}, blocking)
	if err != nil {
		t.Fatal(err)
	}
	sRes, err := RunStep(Config{Graph: g, Seed: 9}, func(int) StepProgram {
		var x int64
		r := 0
		started := false
		return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
			if !started {
				started = true
				x = api.ID()
				api.SendAll(intMsg{x})
				return Running()
			}
			for _, in := range inbox {
				x += in.Msg.(intMsg).v
			}
			r++
			if r == split {
				// Hand the rest of the schedule to a blocking program.
				return Become(func(api *API) {
					for ; r < total; r++ {
						api.SendAll(intMsg{x})
						for _, in := range api.NextRound() {
							x += in.Msg.(intMsg).v
						}
					}
					api.Output(VerdictAccept)
				})
			}
			api.SendAll(intMsg{x})
			return Running()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bRes, sRes) {
		t.Fatalf("become mismatch:\nblocking: %+v\nhybrid:   %+v", bRes, sRes)
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
