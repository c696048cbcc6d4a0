package congest

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// Tests pinned to the struct-of-arrays hot-state layout (DESIGN.md §8):
// the flat duplicate-send bitset, the lazily created per-node RNGs, and
// the 64-bit deadline slab (round numbers past 2^31 are legitimate).
// Each property must hold at every worker count, since workers write
// distinct slab indices concurrently.

// drawStep draws randomness on a subset of nodes only, so the run
// exercises both lazily created and never-created RNG slots. The verdict
// depends on the draw, which makes any seeding or draw-order change
// visible in the Result.
type drawStep struct{ rounds int }

func (d *drawStep) Step(api *StepAPI, inbox []Inbound) Status {
	if api.Round() < d.rounds {
		return Running()
	}
	if api.Index()%3 == 0 {
		if api.Rand().Int63()%2 == 0 {
			api.Output(VerdictAccept)
		} else {
			api.Output(VerdictReject)
		}
	} else {
		api.Output(VerdictAccept)
	}
	return Done()
}

// TestLazyRandDeterminism: RNGs are created on first StepAPI.Rand call;
// creation order differs between sequential and pooled barriers, so
// seeding must depend only on (run seed, node id) for Results to stay
// byte-identical.
func TestLazyRandDeterminism(t *testing.T) {
	g := graph.Grid(10, 12)
	run := func(workers int) *Result {
		res, err := RunStep(Config{Graph: g, Seed: 42, Workers: workers}, func(int) StepProgram {
			return &drawStep{rounds: 3}
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	base := run(1)
	if base.RejectCount() == 0 {
		t.Fatal("want at least one reject so the draws are visible in the Result")
	}
	again := run(1)
	if !reflect.DeepEqual(base, again) {
		t.Fatal("same seed, different Results across runs")
	}
	for _, w := range workerCounts() {
		if par := run(w); !reflect.DeepEqual(base, par) {
			t.Fatalf("workers=%d: result mismatch:\nworkers=1: %+v\nworkers=%d: %+v", w, base, w, par)
		}
	}
}

// TestSleepBeyondMaxRounds: a sleep target past MaxRounds ends the run
// with the exceeded-rounds error once no earlier event exists.
func TestSleepBeyondMaxRounds(t *testing.T) {
	g := graph.Cycle(4)
	_, err := RunStep(Config{Graph: g, Seed: 1}, func(int) StepProgram {
		return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
			return Sleep(math.MaxInt) // far past any representable round
		})
	})
	if err == nil || !strings.Contains(err.Error(), "exceeded 4000000 rounds") {
		t.Fatalf("want exceeded-rounds error, got %v", err)
	}
}

// TestRoundNumbersBeyondInt32: the deadline slab must carry full 64-bit
// round numbers. Exponential-budget schedules under the testers'
// MaxRounds of 2^40 legitimately sleep across billions of empty rounds
// — the engine fast-forwards over them, so huge round numbers are cheap
// — and a narrowed slab turns such a run into a spurious
// exceeded-rounds error (regression: planartest with the default
// fixed-phase schedule died at n=10^4).
func TestRoundNumbersBeyondInt32(t *testing.T) {
	const wake = int(3) << 31 // past int32 range, below MaxRounds
	g := graph.Cycle(4)
	res, err := RunStep(Config{Graph: g, Seed: 1, MaxRounds: 1 << 40}, func(int) StepProgram {
		return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
			if api.Round() >= wake {
				api.Output(VerdictAccept)
				return Done()
			}
			return Sleep(wake)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted() {
		t.Fatal("fast-forwarded run did not accept")
	}
	if res.Metrics.Rounds != wake {
		t.Fatalf("Rounds = %d, want %d", res.Metrics.Rounds, wake)
	}
}

// TestMailWakeFarDeadline: a node parked far past MaxRounds must still
// wake normally on mail — the huge deadline never becomes the next
// event. The star makes every sleeper a neighbor of the sender, so
// every node is woken well before any deadline matters.
func TestMailWakeFarDeadline(t *testing.T) {
	g := graph.Star(5) // node 0 is the center
	woken := make([]bool, g.N())
	res, err := RunStep(Config{Graph: g, Seed: 1}, func(node int) StepProgram {
		if node == 0 {
			return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
				if api.Round() == 0 {
					api.SendAll(intMsg{7})
					return Running()
				}
				api.Output(VerdictAccept)
				return Done()
			})
		}
		return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
			if len(inbox) > 0 {
				woken[api.Index()] = true
				api.Output(VerdictAccept)
				return Done()
			}
			return Sleep(math.MaxInt)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range woken[1:] {
		if !w {
			t.Fatalf("leaf %d not woken by mail: %v", i+1, woken)
		}
	}
	if res.Metrics.Rounds > 10 {
		t.Fatalf("run took %d rounds; mail wake should end it promptly", res.Metrics.Rounds)
	}
}

// TestSharedSentBitset: per-node duplicate-send bitsets share one flat
// uint64 slab. A high-degree node spans multiple words; its duplicate
// check must trip on its own ports and stay independent of its
// neighbors' words.
func TestSharedSentBitset(t *testing.T) {
	g := graph.Star(90) // center degree 89: bitset spans two words
	res, err := RunStep(Config{Graph: g, Seed: 3}, func(node int) StepProgram {
		return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
			if api.Round() == 0 {
				api.SendAll(intMsg{int64(api.Index())}) // every port once: legal
				return Running()
			}
			api.Output(VerdictAccept)
			return Done()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted() {
		t.Fatal("star broadcast run did not accept")
	}

	_, err = RunStep(Config{Graph: g, Seed: 3}, func(node int) StepProgram {
		return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
			if api.Index() == 0 && api.Round() == 0 {
				api.Send(70, intMsg{1}) // port 70 lives in the second word
				api.Send(70, intMsg{2})
			}
			return Done()
		})
	})
	if err == nil || !strings.Contains(err.Error(), "two messages on port 70") {
		t.Fatalf("want duplicate-send panic on port 70, got %v", err)
	}
}
