package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/congest"
	"repro/internal/faultpoint"
	"repro/internal/graph"
	"repro/internal/partition"
)

// TestKillAndResumeEquivalence is the headline fault-injection suite: for
// three graph families, two seeds, and worker counts {1, 2, 4}, it kills
// the full planarity tester at a (deterministically drawn) random barrier
// via faultpoint, restores from the last checkpoint, and asserts the
// resumed run produces a byte-identical RunResult — including identical
// Metrics.Rounds — to an uninterrupted baseline. Both Stage I variants
// run, so checkpoints of the script interpreter, the part-context
// prelude, the Stage II machine, and the RNG replay path are all
// exercised.
func TestKillAndResumeEquivalence(t *testing.T) {
	defer faultpoint.Reset()
	far, _ := graph.PlanarPlusRandomEdges(90, 70, rand.New(rand.NewSource(4)))
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid(10, 10)},
		{"far-from-planar", far},
		{"tree-plus-edges", graph.TreePlusRandomEdges(110, 30, rand.New(rand.NewSource(8)))},
	}
	optsList := []struct {
		name string
		opts Options
	}{
		{"det", Options{Epsilon: 0.25, Partition: partition.Options{Epsilon: 0.25, Schedule: partition.PracticalSchedule}}},
		{"rand", Options{Epsilon: 0.25, Partition: partition.Options{Epsilon: 0.25, Variant: partition.Randomized, Schedule: partition.PracticalSchedule}}},
	}
	crashRng := rand.New(rand.NewSource(99))
	for _, fam := range families {
		for _, oc := range optsList {
			for seed := int64(0); seed < 2; seed++ {
				baseOpts := oc.opts
				baseOpts.Workers = 1
				barriers := 0
				baseOpts.Checkpoint = congest.CheckpointConfig{
					EveryBarriers: 1,
					Sink:          func(round int, data []byte) error { barriers++; return nil },
				}
				base, err := RunTester(fam.g, baseOpts, seed)
				if err != nil {
					t.Fatalf("%s/%s/seed%d: baseline: %v", fam.name, oc.name, seed, err)
				}
				// Crash strictly inside the run: after at least one
				// checkpoint, before the final barrier.
				crashAt := 2 + crashRng.Intn(barriers-2)
				for _, w := range []int{1, 2, 4} {
					snap := crashRun(t, fam.g, oc.opts, seed, w, crashAt,
						fam.name+"/"+oc.name)
					resOpts := oc.opts
					resOpts.Workers = w
					res, err := ResumeTester(fam.g, resOpts, seed, snap)
					if err != nil {
						t.Fatalf("%s/%s/seed%d/w%d: resume: %v", fam.name, oc.name, seed, w, err)
					}
					if !reflect.DeepEqual(base, res) {
						t.Fatalf("%s/%s/seed%d/w%d: resumed result differs:\nbase:    %+v\nresumed: %+v",
							fam.name, oc.name, seed, w, base, res)
					}
				}
				// Cross-worker restore: a checkpoint taken under one worker
				// count resumes under another with the same Result.
				snap := crashRun(t, fam.g, oc.opts, seed, 1, crashAt, fam.name+"/"+oc.name)
				crossOpts := oc.opts
				crossOpts.Workers = 4
				res, err := ResumeTester(fam.g, crossOpts, seed, snap)
				if err != nil {
					t.Fatalf("%s/%s/seed%d: cross-worker resume: %v", fam.name, oc.name, seed, err)
				}
				if !reflect.DeepEqual(base, res) {
					t.Fatalf("%s/%s/seed%d: cross-worker resumed result differs:\nbase:    %+v\nresumed: %+v",
						fam.name, oc.name, seed, base, res)
				}
			}
		}
	}
}

// crashRun runs the tester with per-barrier checkpoints, kills it at the
// crashAt-th barrier, and returns the last checkpoint taken.
func crashRun(t *testing.T, g *graph.Graph, opts Options, seed int64, workers, crashAt int, tag string) []byte {
	t.Helper()
	var last []byte
	opts.Workers = workers
	opts.Checkpoint = congest.CheckpointConfig{
		EveryBarriers: 1,
		Sink: func(round int, data []byte) error {
			last = data
			return nil
		},
		OnError: func(round int, err error) {
			t.Errorf("%s/w%d: checkpoint error at round %d: %v", tag, workers, round, err)
		},
	}
	boom := errors.New("injected crash")
	faultpoint.Arm(congest.FaultBarrier, crashAt, func() error { return boom })
	_, err := RunTester(g, opts, seed)
	faultpoint.Disarm(congest.FaultBarrier)
	if !errors.Is(err, boom) {
		t.Fatalf("%s/w%d/seed%d: expected injected crash at barrier %d, got %v",
			tag, workers, seed, crashAt, err)
	}
	if last == nil {
		t.Fatalf("%s/w%d/seed%d: no checkpoint captured before crash", tag, workers, seed)
	}
	return last
}

// TestResumeRejectsWrongGraph asserts a checkpoint cannot be restored
// onto a different graph.
func TestResumeRejectsWrongGraph(t *testing.T) {
	defer faultpoint.Reset()
	g := graph.Grid(6, 6)
	opts := Options{Epsilon: 0.25, Partition: partition.Options{Epsilon: 0.25, Schedule: partition.PracticalSchedule}}
	snap := crashRun(t, g, opts, 0, 1, 3, "wrong-graph")
	if _, err := ResumeTester(graph.Grid(6, 7), opts, 0, snap); !errors.Is(err, congest.ErrBadSnapshot) {
		t.Fatalf("expected ErrBadSnapshot for mismatched graph, got %v", err)
	}
}

// TestCrashEveryBarrier kills a small tester run at every barrier and
// resumes each crash. A crash at barrier b resumes from the checkpoint
// barrier b wrote, so the run checkpoints every barrier once and every
// checkpoint is resumed (alternating one and two workers), each to the
// uninterrupted run's exact RunResult. Every elided part-tree window
// (elide.go in internal/congest) spans at least its start barrier, so
// every window kind — Stage I broadcasts, the part-context depth
// agreement, the counts broadcast, the rotation scatter and the sample
// stream — is cut at least once, at every offset into it. The grid runs
// both Stage I variants; the far input, which StopOnReject also cuts
// inside open windows, runs the deterministic one.
func TestCrashEveryBarrier(t *testing.T) {
	far, _ := graph.PlanarPlusRandomEdges(40, 30, rand.New(rand.NewSource(4)))
	both := []partition.Variant{partition.Deterministic, partition.Randomized}
	for _, fam := range []struct {
		name     string
		g        *graph.Graph
		variants []partition.Variant
	}{{"grid", graph.Grid(6, 6), both}, {"far", far, both[:1]}} {
		for _, v := range fam.variants {
			opts := Options{Epsilon: 0.25, Partition: partition.Options{
				Epsilon: 0.25, Variant: v, Schedule: partition.PracticalSchedule}}
			var snaps [][]byte
			run := opts
			run.Workers = 1
			run.Checkpoint = congest.CheckpointConfig{
				EveryBarriers: 1,
				Sink:          func(_ int, data []byte) error { snaps = append(snaps, data); return nil },
			}
			base, err := RunTester(fam.g, run, 1)
			if err != nil {
				t.Fatalf("%s/%v: %v", fam.name, v, err)
			}
			for b, snap := range snaps {
				res := opts
				res.Workers = 1 + b%2
				got, err := ResumeTester(fam.g, res, 1, snap)
				if err != nil {
					t.Fatalf("%s/%v: resume at barrier %d: %v", fam.name, v, b+1, err)
				}
				if !reflect.DeepEqual(base, got) {
					t.Fatalf("%s/%v: resumed at barrier %d of %d:\nbase:    %+v\nresumed: %+v",
						fam.name, v, b+1, len(snaps), base, got)
				}
			}
			t.Logf("%s/%v: %d barriers, rejected=%v", fam.name, v, len(snaps), base.Rejected)
		}
	}
}
