package congest

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// intMsg is a small test message carrying one value.
type intMsg struct{ v int64 }

func (m intMsg) Bits() int { return 8 + BitsForValue(m.v) }

// hugeMsg violates any sensible bit bound.
type hugeMsg struct{}

func (hugeMsg) Bits() int { return 1 << 20 }

func TestFloodBFSOnGrid(t *testing.T) {
	g := graph.Grid(8, 11)
	want := g.BFS(0)
	dist := make([]int, g.N())
	res, err := RunStep(Config{Graph: g, Seed: 1}, func(int) StepProgram {
		return &floodStep{deadline: 1000, dist: dist}
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if dist[v] != want.Dist[v] {
			t.Fatalf("node %d: flood dist %d, want %d", v, dist[v], want.Dist[v])
		}
	}
	// Fast-forward must keep the deadline rounds cheap but counted.
	if res.Metrics.Rounds != 1000 {
		t.Fatalf("rounds = %d, want 1000 (deadline padding)", res.Metrics.Rounds)
	}
	if res.Metrics.MaxMessageBits > res.Metrics.BitBound {
		t.Fatalf("max message bits %d exceeds bound %d", res.Metrics.MaxMessageBits, res.Metrics.BitBound)
	}
}

func TestLeaderElectionMaxID(t *testing.T) {
	g := graph.Cycle(17)
	leaders := make([]int64, g.N())
	_, err := RunStep(Config{Graph: g, Seed: 2}, func(int) StepProgram {
		return &leaderStep{rounds: g.N(), out: leaders}
	})
	if err != nil {
		t.Fatal(err)
	}
	var max int64
	for _, l := range leaders {
		if l > max {
			max = l
		}
	}
	for i, l := range leaders {
		if l != max {
			t.Fatalf("node %d elected %d, want %d", i, l, max)
		}
	}
}

// rounds returns a program that runs step in each of its first n rounds
// (r counts from 0) and terminates in round n.
func rounds(n int, step func(api *StepAPI, r int, inbox []Inbound)) StepProgram {
	r := 0
	return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
		if r == n {
			return Done()
		}
		step(api, r, inbox)
		r++
		return Running()
	})
}

// once returns a program that runs f in round 0 and terminates.
func once(f func(api *StepAPI)) StepProgram {
	return StepFunc(func(api *StepAPI, _ []Inbound) Status {
		f(api)
		return Done()
	})
}

// sizedMsg reports exactly bits bits.
type sizedMsg struct{ bits int }

func (m sizedMsg) Bits() int { return m.bits }

// TestBitBoundViolation checks the edge of the bound: a message of
// exactly Config.BitBound bits is delivered and recorded as the largest
// message, and one bit more aborts the run with an error naming the
// sender, the size and the bound, even when it is sent mid-run.
func TestBitBoundViolation(t *testing.T) {
	g := graph.Path(3)
	run := func(bits int) (*Result, error) {
		return RunStep(Config{Graph: g, Seed: 3, BitBound: 40}, func(int) StepProgram {
			return rounds(4, func(api *StepAPI, r int, _ []Inbound) {
				if api.Index() == 1 && r == 2 {
					api.Send(1, sizedMsg{bits})
				}
			})
		})
	}
	res, err := run(40)
	if err != nil {
		t.Fatalf("message at the bound: %v", err)
	}
	if res.Metrics.MaxMessageBits != 40 || res.Metrics.BitBound != 40 || res.Metrics.Messages != 1 {
		t.Fatalf("metrics = %+v; want one 40-bit message under bound 40", res.Metrics)
	}
	_, err = run(41)
	if err == nil || !strings.Contains(err.Error(), "node 1 sent 41-bit message, bound is 40") {
		t.Fatalf("want bit bound error for node 1, got %v", err)
	}
}

func TestDoubleSendPanics(t *testing.T) {
	g := graph.Path(2)
	_, err := RunStep(Config{Graph: g, Seed: 4}, func(int) StepProgram {
		return rounds(1, func(api *StepAPI, _ int, _ []Inbound) {
			if api.Index() == 0 {
				api.Send(0, intMsg{1})
				api.Send(0, intMsg{2}) // model violation
			}
		})
	})
	if err == nil || !strings.Contains(err.Error(), "two messages") {
		t.Fatalf("want double-send error, got %v", err)
	}
}

func TestInvalidPortPanics(t *testing.T) {
	g := graph.Path(3)
	_, err := RunStep(Config{Graph: g, Seed: 5}, func(int) StepProgram {
		return rounds(1, func(api *StepAPI, _ int, _ []Inbound) {
			api.Send(5, intMsg{1})
		})
	})
	if err == nil || !strings.Contains(err.Error(), "invalid port") {
		t.Fatalf("want invalid port error, got %v", err)
	}
}

func TestMaxRoundsExceeded(t *testing.T) {
	g := graph.Path(2)
	_, err := RunStep(Config{Graph: g, Seed: 6, MaxRounds: 50}, func(int) StepProgram {
		return StepFunc(func(*StepAPI, []Inbound) Status { return Running() })
	})
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("want max-rounds error, got %v", err)
	}
}

// TestProgramPanicPropagates checks that a panic in a continuation that
// BecomeStep installed is reported like one in the original program: as
// the run's error, naming the node and the round, while the other nodes
// would have kept running.
func TestProgramPanicPropagates(t *testing.T) {
	g := graph.Path(4)
	_, err := RunStep(Config{Graph: g, Seed: 7}, func(node int) StepProgram {
		return StepFunc(func(api *StepAPI, _ []Inbound) Status {
			if node == 2 && api.Round() == 1 {
				return BecomeStep(StepFunc(func(api *StepAPI, _ []Inbound) Status {
					if api.Round() == 2 {
						panic("boom")
					}
					return Running()
				}))
			}
			if api.Round() == 10 {
				return Done()
			}
			return Running()
		})
	})
	if err == nil || !strings.Contains(err.Error(), "node 2") ||
		!strings.Contains(err.Error(), "round 2") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("want propagated panic of node 2 at round 2, got %v", err)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	g := graph.Grid(5, 5)
	run := func(seed int64) (*Result, []int64) {
		vals := make([]int64, g.N())
		res, err := RunStep(Config{Graph: g, Seed: seed}, func(int) StepProgram {
			var x int64
			return rounds(21, func(api *StepAPI, r int, inbox []Inbound) {
				if r == 0 {
					x = api.Rand().Int63n(1000)
				}
				for _, in := range inbox {
					x = (x + in.Msg.(intMsg).v) % 1_000_003
				}
				if r < 20 {
					api.SendAll(intMsg{x})
				} else {
					vals[api.Index()] = x
				}
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, vals
	}
	r1, v1 := run(42)
	r2, v2 := run(42)
	if r1.Metrics != r2.Metrics {
		t.Fatalf("metrics differ across identical runs:\n%v\n%v", r1.Metrics, r2.Metrics)
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("node %d: values differ %d vs %d", i, v1[i], v2[i])
		}
	}
	_, v3 := run(43)
	same := true
	for i := range v1 {
		if v1[i] != v3[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical outcomes (suspicious)")
	}
}

func TestSleepUntilWakesOnMessage(t *testing.T) {
	g := graph.Path(2)
	wokeAt := 0
	res, err := RunStep(Config{Graph: g, Seed: 8}, func(node int) StepProgram {
		woken := false
		return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
			switch {
			case node == 0 && api.Round() == 0:
				return Sleep(5)
			case node == 0 && api.Round() == 5:
				api.Send(0, intMsg{99})
				return Running()
			case node == 0:
				return Done()
			case !woken:
				woken = true
				return Sleep(100000)
			}
			wokeAt = api.Round()
			if len(inbox) != 1 || inbox[0].Msg.(intMsg).v != 99 {
				panic("wrong inbox")
			}
			return Done()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if wokeAt != 6 {
		t.Fatalf("woke at round %d, want 6", wokeAt)
	}
	if res.Metrics.Rounds > 10 {
		t.Fatalf("rounds = %d; sleeper must not force the deadline", res.Metrics.Rounds)
	}
}

// TestFastForwardLongIdle checks fast-forwarding across two long idle
// gaps with one exchange between them, on a path long enough for the
// worker pool to step the barriers: every node sleeps to round 10^6,
// sends its index to its neighbours, is woken by their mail, and sleeps
// again to round 2·10^6. The sequential engine and the pool must agree.
func TestFastForwardLongIdle(t *testing.T) {
	const n, gap = 100, 1_000_000
	g := graph.Path(n)
	run := func(workers int) (*Result, []int64) {
		got := make([]int64, n)
		res, err := RunStep(Config{Graph: g, Seed: 9, Workers: workers}, func(node int) StepProgram {
			return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
				switch r := api.Round(); {
				case r < gap:
					return Sleep(gap)
				case r == gap:
					api.SendAll(intMsg{int64(node)})
					return Sleep(2 * gap)
				case r < 2*gap:
					for _, in := range inbox {
						got[node] += in.Msg.(intMsg).v
					}
					return Sleep(2 * gap)
				}
				return Done()
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, got
	}
	seq, got := run(1)
	if seq.Metrics.Rounds != 2*gap || seq.Metrics.Messages != 2*(n-1) {
		t.Fatalf("rounds = %d, messages = %d; want %d and %d",
			seq.Metrics.Rounds, seq.Metrics.Messages, 2*gap, 2*(n-1))
	}
	for v := range n {
		want := int64(0)
		if v > 0 {
			want += int64(v - 1)
		}
		if v < n-1 {
			want += int64(v + 1)
		}
		if got[v] != want {
			t.Fatalf("node %d received %d, want the sum of its neighbours %d", v, got[v], want)
		}
	}
	par, parGot := run(4)
	if !reflect.DeepEqual(seq, par) || !reflect.DeepEqual(got, parGot) {
		t.Fatalf("workers=4 differs from workers=1:\n%+v\n%+v", par, seq)
	}
}

// TestMessageToDoneNodeDropped checks where delivery ends for a node that
// terminates mid-run: the centre of a star reads the leaves' round-1
// messages and terminates in round 2. The leaves' round-2 messages are
// routed after the centre (node 0) finished, so they are dropped like the
// round-3 ones. The sequential engine and the worker pool must agree.
func TestMessageToDoneNodeDropped(t *testing.T) {
	const n = 70
	g := graph.Star(n)
	run := func(workers int) (*Result, int64) {
		var sum int64
		res, err := RunStep(Config{Graph: g, Seed: 11, Workers: workers}, func(node int) StepProgram {
			if node == 0 {
				return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
					if api.Round() < 2 {
						return Running()
					}
					for _, in := range inbox {
						sum += in.Msg.(intMsg).v
					}
					return Done()
				})
			}
			return rounds(4, func(api *StepAPI, r int, _ []Inbound) {
				if r >= 1 {
					api.Send(0, intMsg{int64(node)})
				}
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, sum
	}
	seq, sum := run(1)
	if seq.Metrics.Messages != n-1 || seq.Metrics.DroppedToDone != 2*(n-1) {
		t.Fatalf("messages = %d, dropped = %d; want %d and %d",
			seq.Metrics.Messages, seq.Metrics.DroppedToDone, n-1, 2*(n-1))
	}
	if want := int64(n * (n - 1) / 2); sum != want {
		t.Fatalf("centre read %d, want the round-1 ids summing to %d", sum, want)
	}
	par, parSum := run(4)
	if !reflect.DeepEqual(seq, par) || parSum != sum {
		t.Fatalf("workers=4 differs from workers=1:\n%+v\n%+v", par, seq)
	}
}

func TestVerdictAggregation(t *testing.T) {
	g := graph.Path(5)
	res, err := RunStep(Config{Graph: g, Seed: 10}, func(int) StepProgram {
		return once(func(api *StepAPI) {
			if api.Index() == 3 {
				api.Output(VerdictReject)
			} else {
				api.Output(VerdictAccept)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted() {
		t.Fatal("Accepted must be false with a rejector")
	}
	if !res.Rejected() || res.RejectCount() != 1 {
		t.Fatalf("want exactly one reject, got %d", res.RejectCount())
	}
}

func TestModeledRounds(t *testing.T) {
	g := graph.Path(3)
	res, err := RunStep(Config{Graph: g, Seed: 12}, func(int) StepProgram {
		return once(func(api *StepAPI) { api.ChargeModeledRounds(7) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.ModeledRounds != 21 {
		t.Fatalf("modeled rounds = %d, want 21", res.Metrics.ModeledRounds)
	}
}

func TestCustomIDs(t *testing.T) {
	g := graph.Path(3)
	ids := []int64{100, 200, 300}
	seen := make([]int64, 3)
	_, err := RunStep(Config{Graph: g, Seed: 13, IDs: ids}, func(int) StepProgram {
		return once(func(api *StepAPI) { seen[api.Index()] = api.ID() })
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if seen[i] != ids[i] {
			t.Fatalf("node %d saw id %d, want %d", i, seen[i], ids[i])
		}
	}
}

func TestDefaultIDsAreUniquePermutation(t *testing.T) {
	g := graph.Grid(4, 4)
	seen := make([]int64, g.N())
	_, err := RunStep(Config{Graph: g, Seed: 14}, func(int) StepProgram {
		return once(func(api *StepAPI) { seen[api.Index()] = api.ID() })
	})
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[int64]bool)
	for _, id := range seen {
		if id < 1 || id > int64(g.N()) || used[id] {
			t.Fatalf("ids are not a permutation of 1..n: %v", seen)
		}
		used[id] = true
	}
}

// pathTree builds the Tree view for node i on the path 0-1-...-n-1 rooted
// at node 0. Port layout: on a path, node 0 has port 0 -> node 1; interior
// node i has port 0 -> i-1 and port 1 -> i+1; the last node has port 0.
func pathTree(i, n int) Tree {
	switch {
	case i == 0:
		return Tree{ParentPort: -1, ChildPorts: []int{0}}
	case i == n-1:
		return Tree{ParentPort: 0}
	default:
		return Tree{ParentPort: 0, ChildPorts: []int{1}}
	}
}

func TestTreeBroadcastDown(t *testing.T) {
	const n = 7
	g := graph.Path(n)
	got := make([]int64, n)
	_, err := RunStep(Config{Graph: g, Seed: 15}, func(i int) StepProgram {
		tr := pathTree(i, n)
		return treeOps(engineOp(func(api *StepAPI) Status {
			// The payload is one more than the depth, so node i receives
			// i+1.
			return api.BroadcastDepth(tr, api.Round()+n+2, depthPlusOne)
		}, func(api *StepAPI) {
			got[api.Index()] = api.Result().(intMsg).v
		}))
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got[i] != int64(i+1) {
			t.Fatalf("node %d got %d, want %d", i, got[i], i+1)
		}
	}
}

func TestTreeConvergecastSum(t *testing.T) {
	const n = 9
	g := graph.Path(n)
	var rootSum int64
	_, err := RunStep(Config{Graph: g, Seed: 16}, func(i int) StepProgram {
		tr := pathTree(i, n)
		return treeOps(engineOp(func(api *StepAPI) Status {
			return api.Convergecast(tr, api.Round(), api.Round()+n+2, intMsg{v: int64(i)}, sumCombine)
		}, func(api *StepAPI) {
			if agg := api.Result(); tr.IsRoot() {
				rootSum = agg.(intMsg).v
			}
		}))
	})
	if err != nil {
		t.Fatal(err)
	}
	if rootSum != int64(n*(n-1)/2) {
		t.Fatalf("sum = %d, want %d", rootSum, n*(n-1)/2)
	}
}

func TestTreePipelineUp(t *testing.T) {
	const n = 6
	g := graph.Path(n)
	var collected []int64
	_, err := RunStep(Config{Graph: g, Seed: 17}, func(i int) StepProgram {
		tr := pathTree(i, n)
		var pu PipelineUpStep
		return treeOps(machineOp(&pu, func(api *StepAPI) bool {
			// Each node contributes two items; budget = items + depth + slack.
			items := []Message{intMsg{v: int64(i * 10)}, intMsg{v: int64(i*10 + 1)}}
			return pu.Begin(api, tr, api.Round()+2*n+n+4, items)
		}, func(api *StepAPI) {
			got, ok := pu.Result()
			if !ok {
				panic("pipeline did not complete")
			}
			for _, m := range got {
				collected = append(collected, m.(intMsg).v)
			}
		}))
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(collected) != 2*n {
		t.Fatalf("collected %d items, want %d", len(collected), 2*n)
	}
	seen := make(map[int64]bool)
	for _, v := range collected {
		seen[v] = true
	}
	for i := 0; i < n; i++ {
		if !seen[int64(i*10)] || !seen[int64(i*10+1)] {
			t.Fatalf("missing items of node %d; got %v", i, collected)
		}
	}
}

func TestTreeBroadcastItemsDown(t *testing.T) {
	const n = 5
	g := graph.Path(n)
	counts := make([]int, n)
	_, err := RunStep(Config{Graph: g, Seed: 18}, func(i int) StepProgram {
		tr := pathTree(i, n)
		return treeOps(engineOp(func(api *StepAPI) Status {
			var items []Message
			if tr.IsRoot() {
				for k := 0; k < 7; k++ {
					items = append(items, intMsg{v: int64(100 + k)})
				}
			}
			return api.Stream(tr, api.Round()+7+n+4, items)
		}, func(api *StepAPI) {
			got := api.Shared(func(items []Message) any { return items }).([]Message)
			counts[api.Index()] = len(got)
			for k, m := range got {
				if m.(intMsg).v != int64(100+k) {
					panic("wrong item order")
				}
			}
		}))
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 7 {
			t.Fatalf("node %d received %d items, want 7", i, c)
		}
	}
}

func TestTreeOpsOnStar(t *testing.T) {
	// Star: center 0 with 6 leaves; exercises wide fan-in/out.
	const n = 7
	g := graph.Star(n)
	var sum int64
	_, err := RunStep(Config{Graph: g, Seed: 19}, func(i int) StepProgram {
		tr := Tree{ParentPort: 0}
		if i == 0 {
			tr = Tree{ParentPort: -1, ChildPorts: []int{0, 1, 2, 3, 4, 5}}
		}
		return treeOps(engineOp(func(api *StepAPI) Status {
			return api.Convergecast(tr, api.Round(), api.Round()+4, intMsg{v: 1}, sumCombine)
		}, func(api *StepAPI) {
			if agg := api.Result(); tr.IsRoot() {
				sum = agg.(intMsg).v
			}
		}))
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != n {
		t.Fatalf("sum = %d, want %d", sum, n)
	}
}

func TestBitsHelpers(t *testing.T) {
	if BitsForValue(0) != 1 || BitsForValue(1) != 1 || BitsForValue(2) != 2 || BitsForValue(255) != 8 {
		t.Fatal("BitsForValue wrong")
	}
	if BitsForSigned(0) != 2 || BitsForSigned(-1) != 2 || BitsForSigned(255) != 9 || BitsForSigned(-256) != 10 {
		t.Fatal("BitsForSigned wrong")
	}
	if BitsForID(1024) != 20 {
		t.Fatalf("BitsForID(1024) = %d, want 20", BitsForID(1024))
	}
	if DefaultBitBound(1024) != 48*10 {
		t.Fatalf("DefaultBitBound(1024) = %d", DefaultBitBound(1024))
	}
}

func TestVerdictString(t *testing.T) {
	if VerdictAccept.String() != "accept" || VerdictReject.String() != "reject" || VerdictNone.String() != "none" {
		t.Fatal("verdict strings wrong")
	}
}

func TestCancelAbortsRun(t *testing.T) {
	g := graph.Cycle(9)
	flood := func(n int) func(int) StepProgram {
		return func(int) StepProgram {
			return rounds(n, func(api *StepAPI, r int, _ []Inbound) {
				api.SendAll(intMsg{int64(r)})
				if r == n-1 {
					api.Output(VerdictAccept)
				}
			})
		}
	}

	// A channel that fires mid-run ends it with ErrCanceled. Closing
	// before the run starts makes the abort deterministic: the engine
	// polls at the first barrier.
	done := make(chan struct{})
	close(done)
	_, err := RunStep(Config{Graph: g, Seed: 3, Cancel: done}, flood(1_000_000))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled run: err = %v, want ErrCanceled", err)
	}

	// A cancel channel that never fires must not perturb the run:
	// byte-identical Results vs. a run without one.
	idle := make(chan struct{})
	defer close(idle)
	base, err := RunStep(Config{Graph: g, Seed: 3}, flood(10))
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunStep(Config{Graph: g, Seed: 3, Cancel: idle}, flood(10))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, got) {
		t.Fatalf("idle cancel channel changed the run: %+v vs %+v", base, got)
	}
}
