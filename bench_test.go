package repro_test

// Benchmarks that scripts/bench.sh records and scripts/bench_compare.sh
// gates: the flagship experiments E1, E11 and E12 (DESIGN.md §4), with
// simulated CONGEST rounds or message bits reported as a custom metric
// alongside wall time, and the large-n tester and exact-oracle runs.
// TestPaperClaims (claims_test.go) asserts the bounds of every
// experiment E1-E12.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/partition"
)

// BenchmarkE1RoundsVsN: Theorem 1 round complexity on a planar grid with
// the fixed-phase schedule (the regime where rounds/log n converges).
func BenchmarkE1RoundsVsN(b *testing.B) {
	g := graph.Grid(12, 12)
	opts := core.Options{Epsilon: 0.25}
	opts.Partition = partition.Options{Epsilon: 0.25, Schedule: partition.PracticalSchedule}
	var rounds int
	for i := 0; i < b.N; i++ {
		res, err := core.RunTester(g, opts, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if res.Rejected {
			b.Fatal("planar grid rejected")
		}
		rounds = res.Metrics.Rounds
	}
	b.ReportMetric(float64(rounds), "congest-rounds")
}

// BenchmarkE11Baseline: the Elkin–Neiman-based tester (§1.1 variant).
func BenchmarkE11Baseline(b *testing.B) {
	g := graph.Grid(12, 12)
	var rounds int
	for i := 0; i < b.N; i++ {
		res, err := core.RunTester(g, core.Options{Epsilon: 0.25, UseEN: true}, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if res.Rejected {
			b.Fatal("planar grid rejected")
		}
		rounds = res.Metrics.Rounds
	}
	b.ReportMetric(float64(rounds), "congest-rounds")
}

// BenchmarkLargeN: the full native tester on 10^5/10^6-node inputs — the
// scale the goroutine-free engine was built for (ROADMAP large-n item).
// Families: connected random planar graphs (accept path) and sparse
// K5-subdivisions (non-planar but below the eps threshold, so the whole
// pipeline runs). eps = 0.5 keeps parts — and thus the Stage II label
// machinery — small enough that the 10^5 sizes fit a CI budget; the
// 10^6-node sizes are skipped in -short mode (CI).
func BenchmarkLargeN(b *testing.B) {
	opts := core.Options{Epsilon: 0.5}
	opts.Partition = partition.Options{Epsilon: 0.5, Schedule: partition.PracticalSchedule}
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		if n > 100_000 && testing.Short() {
			continue
		}
		b.Run(fmt.Sprintf("planar-n%d", n), func(b *testing.B) {
			g := graph.RandomPlanar(n, 3*n/2, rand.New(rand.NewSource(int64(n))))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.RunTester(g, opts, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				if res.Rejected {
					b.Fatal("planar input rejected")
				}
			}
		})
		b.Run(fmt.Sprintf("k5subdiv-n%d", n), func(b *testing.B) {
			g := graph.K5Subdivision(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.RunTester(g, opts, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOracle: the exact sequential fast path (internal/oracle) on
// the same planar instances as BenchmarkLargeN's accept path. The
// mode=exact speedup over the CONGEST tester is the ratio of this
// benchmark to BenchmarkLargeN/planar-n<N> in the same BENCH_*.json;
// the differential-corpus work requires >= 100x at n=10^5.
func BenchmarkOracle(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("planar-n%d", n), func(b *testing.B) {
			g := graph.RandomPlanar(n, 3*n/2, rand.New(rand.NewSource(int64(n))))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := oracle.Decide(g)
				if !res.Planar {
					b.Fatal("planar input rejected")
				}
			}
		})
	}
}

// BenchmarkE12Congestion: CONGEST conformance accounting over a full run.
func BenchmarkE12Congestion(b *testing.B) {
	g := graph.Grid(10, 10)
	var maxBits int
	for i := 0; i < b.N; i++ {
		res, err := repro.TestPlanarity(g, repro.TesterOptions{Epsilon: 0.25}, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		maxBits = res.Metrics.MaxMessageBits
		if maxBits > res.Metrics.BitBound {
			b.Fatal("bit bound exceeded")
		}
	}
	b.ReportMetric(float64(maxBits), "max-message-bits")
}
