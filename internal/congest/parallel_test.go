package congest

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/graph"
)

// Parallel-engine equivalence: the worker-pool scheduler (Config.Workers
// > 1) must produce byte-identical Results to the single-worker engine
// for any worker count. The graphs here have more than minParallelDue
// nodes so the pool really engages, and the programs mix dense
// barriers (every node due) with sparse ones (frontier-only wakes, one
// block) so a Workers>1 run steps both multi-block barriers on the
// pool and single-block barriers on the engine loop. CI runs this file
// under -race, which verifies the compute phase touches only per-node
// state.

// workerCounts is the issue-mandated equivalence matrix {1, 4,
// GOMAXPROCS} plus 2 (the smallest pool): every count must produce
// Results byte-identical to the Workers=1 baseline.
func workerCounts() []int {
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

func TestParallelEngineEquivalence(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid(10, 12)},
		{"cycle", graph.Cycle(150)},
		{"star", graph.Star(90)},
	}
	for _, fam := range families {
		for seed := int64(0); seed < 2; seed++ {
			const deadline = 400
			seqDist := make([]int, fam.g.N())
			seqRes, seqErr := RunStep(Config{Graph: fam.g, Seed: seed, Workers: 1}, func(int) StepProgram {
				return &floodStep{deadline: deadline, dist: seqDist}
			})
			if seqErr != nil {
				t.Fatalf("%s/seed%d: sequential: %v", fam.name, seed, seqErr)
			}
			for _, w := range workerCounts() {
				parDist := make([]int, fam.g.N())
				parRes, parErr := RunStep(Config{Graph: fam.g, Seed: seed, Workers: w}, func(int) StepProgram {
					return &floodStep{deadline: deadline, dist: parDist}
				})
				if parErr != nil {
					t.Fatalf("%s/seed%d/w%d: parallel: %v", fam.name, seed, w, parErr)
				}
				if !reflect.DeepEqual(seqRes, parRes) {
					t.Fatalf("%s/seed%d/w%d flood: result mismatch:\nworkers=1: %+v\nworkers=%d: %+v",
						fam.name, seed, w, seqRes, w, parRes)
				}
				if !reflect.DeepEqual(seqDist, parDist) {
					t.Fatalf("%s/seed%d/w%d flood: distances differ", fam.name, seed, w)
				}
			}

			rounds := 40
			seqOut := make([]int64, fam.g.N())
			seqRes, seqErr = RunStep(Config{Graph: fam.g, Seed: seed, Workers: 1}, func(int) StepProgram {
				return &leaderStep{rounds: rounds, out: seqOut}
			})
			if seqErr != nil {
				t.Fatalf("%s/seed%d: sequential leader: %v", fam.name, seed, seqErr)
			}
			for _, w := range workerCounts() {
				parOut := make([]int64, fam.g.N())
				parRes, parErr := RunStep(Config{Graph: fam.g, Seed: seed, Workers: w}, func(int) StepProgram {
					return &leaderStep{rounds: rounds, out: parOut}
				})
				if parErr != nil {
					t.Fatalf("%s/seed%d/w%d: parallel leader: %v", fam.name, seed, w, parErr)
				}
				if !reflect.DeepEqual(seqRes, parRes) {
					t.Fatalf("%s/seed%d/w%d leader: result mismatch", fam.name, seed, w)
				}
				if !reflect.DeepEqual(seqOut, parOut) {
					t.Fatalf("%s/seed%d/w%d leader: winners differ", fam.name, seed, w)
				}
			}
		}
	}
}

// TestParallelPanicDeterminism: a panic in a pooled barrier must surface
// as the same run error as in the sequential engine — the first
// panicking node in due order decides.
func TestParallelPanicDeterminism(t *testing.T) {
	g := graph.Grid(10, 10)
	progs := func(node int) StepProgram {
		return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
			if api.Round() == 3 && api.Index()%17 == 5 {
				panic("boom")
			}
			api.SendAll(intMsg{int64(api.Round())})
			return Running()
		})
	}
	_, seqErr := RunStep(Config{Graph: g, Seed: 1, Workers: 1}, progs)
	if seqErr == nil || !strings.Contains(seqErr.Error(), "panicked at round 3") {
		t.Fatalf("sequential: unexpected error %v", seqErr)
	}
	for _, w := range workerCounts() {
		_, parErr := RunStep(Config{Graph: g, Seed: 1, Workers: w}, progs)
		if parErr == nil || parErr.Error() != seqErr.Error() {
			t.Fatalf("workers=%d: error mismatch:\nworkers=1: %v\nworkers=%d: %v",
				w, seqErr, w, parErr)
		}
	}
}
