package congest

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// Engine microbenchmarks (run with -benchmem); scripts/bench.sh records
// them in BENCH_*.json. The "step" sub-benchmark names are kept so the
// rows stay comparable with earlier baselines.

func benchGraphTree(n int) (*graph.Graph, func(i int) Tree) {
	g := graph.Path(n)
	return g, func(i int) Tree { return pathTree(i, n) }
}

func BenchmarkEngineBroadcast(b *testing.B) {
	const n = 64
	g, tree := benchGraphTree(n)
	b.Run("step", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := RunStep(Config{Graph: g, Seed: int64(i)}, func(node int) StepProgram {
				started := false
				return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
					if !started {
						started = true
						tr := tree(api.Index())
						var root Message
						if tr.IsRoot() {
							root = intMsg{v: 42}
						}
						return api.Broadcast(tr, api.Round()+n+2, root)
					}
					api.Result()
					return Done()
				})
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkEngineConvergecast(b *testing.B) {
	const n = 64
	g, tree := benchGraphTree(n)
	b.Run("step", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := RunStep(Config{Graph: g, Seed: int64(i)}, func(node int) StepProgram {
				started := false
				return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
					if !started {
						started = true
						own := intMsg{v: int64(api.Index())}
						return api.Convergecast(tree(api.Index()), api.Round(), api.Round()+n+2, own, sumCombine)
					}
					api.Result()
					return Done()
				})
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineFloodPingPong stresses the dense all-ports exchange: every
// node sends on every port every round for a fixed number of rounds (the
// worst case for scheduler and routing overhead).
func BenchmarkEngineFloodPingPong(b *testing.B) {
	g := graph.Grid(8, 8)
	const rounds = 64
	b.Run("step", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := RunStep(Config{Graph: g, Seed: int64(i)}, func(node int) StepProgram {
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
						x = (x + in.Msg.(intMsg).v) % 1_000_003
					}
					r++
					if r == rounds {
						return Done()
					}
					api.SendAll(intMsg{x})
					return Running()
				})
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// wakeState is BenchmarkEngineWake's per-node program: 128 bytes on the
// heap, one field written per wake, so every wake touches cold node
// state the way real step programs do.
type wakeState struct {
	vals [15]int64
	r    int64
}

const benchWakes = 40 // Running wakes per node before the final Done wake

func (s *wakeState) Step(api *StepAPI, inbox []Inbound) Status {
	s.vals[s.r%15] = s.r
	s.r++
	if s.r > benchWakes {
		return Done()
	}
	return Running()
}

// calendarWakeState is wakeState parked on the wake calendar: after
// every wake the node sleeps two rounds, so all nodes share each
// deadline and every barrier's due list is one calendar bucket.
type calendarWakeState struct{ wakeState }

func (s *calendarWakeState) Step(api *StepAPI, inbox []Inbound) Status {
	if st := s.wakeState.Step(api, inbox); st.kind == statusDone {
		return st
	}
	return Sleep(api.Round() + 2)
}

// BenchmarkEngineWake measures the engine's per-wake cost with no
// messages: a 10^5-node random planar graph where every node wakes
// benchWakes+1 times, stepped at Workers 1 and 2. It reports ns/wake,
// the cost computeNode, parking and the due-list rebuild add to each
// wake of a real algorithm. The workersN rows park every node for
// round+1; the sleep-workersN rows park every node on a common
// deadline two rounds out, so the calendar path is measured too.
func BenchmarkEngineWake(b *testing.B) {
	const n = 100_000
	g := graph.RandomPlanar(n, 3*n/2, rand.New(rand.NewSource(1)))
	for _, mode := range []struct {
		name string
		prog func() StepProgram
		gap  int // rounds between wakes
	}{
		{"", func() StepProgram { return new(wakeState) }, 1},
		{"sleep-", func() StepProgram { return new(calendarWakeState) }, 2},
	} {
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("%sworkers%d", mode.name, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := RunStep(Config{Graph: g, Seed: int64(i), Workers: w}, func(int) StepProgram {
						return mode.prog()
					})
					if err != nil {
						b.Fatal(err)
					}
					if res.Metrics.Rounds != mode.gap*benchWakes {
						b.Fatalf("rounds = %d, want %d", res.Metrics.Rounds, mode.gap*benchWakes)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*(benchWakes+1)), "ns/wake")
			})
		}
	}
}
