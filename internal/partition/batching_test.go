package partition

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/congest"
	"repro/internal/faultpoint"
	"repro/internal/graph"
)

// runStageI is CollectStageI with worker-count and checkpoint control,
// optionally collecting the concrete interpreter nodes so the batching
// tests can observe fast-forward state at checkpoint barriers.
func runStageI(g *graph.Graph, opts Options, seed int64, workers int,
	ck congest.CheckpointConfig, track *[]*stageINode) ([]*Outcome, []int64, *congest.Result, error) {
	ids := permIDs(g.N(), seed)
	outs := make([]*Outcome, g.N())
	plan := NewStageIPlan(opts, g.N())
	res, err := congest.RunStep(congest.Config{
		Graph:        g,
		Seed:         seed,
		IDs:          ids,
		StopOnReject: true,
		MaxRounds:    1 << 40,
		Workers:      workers,
		Checkpoint:   ck,
	}, func(node int) congest.StepProgram {
		sn := plan.NewNode(func(api *congest.StepAPI, out *Outcome) congest.Status {
			outs[api.Index()] = out
			return congest.Done()
		}).(*stageINode)
		if track != nil {
			*track = append(*track, sn)
		}
		return sn
	})
	return outs, ids, res, err
}

// resumeStageI restores a Stage I run from an engine checkpoint.
func resumeStageI(g *graph.Graph, opts Options, seed int64, workers int,
	snap []byte) ([]*Outcome, []int64, *congest.Result, error) {
	ids := permIDs(g.N(), seed)
	outs := make([]*Outcome, g.N())
	plan := NewStageIPlan(opts, g.N())
	res, err := congest.ResumeStep(congest.Config{
		Graph:        g,
		Seed:         seed,
		IDs:          ids,
		StopOnReject: true,
		MaxRounds:    1 << 40,
		Workers:      workers,
	}, snap, func(node int, kind uint16, c *congest.Snap) (congest.StepProgram, error) {
		if kind != SnapKindStageI {
			return nil, fmt.Errorf("unexpected snapshot kind %d", kind)
		}
		return plan.ResumeNode(c, func(api *congest.StepAPI, out *Outcome) congest.Status {
			outs[api.Index()] = out
			return congest.Done()
		})
	})
	return outs, ids, res, err
}

// stageIRun bundles one run's comparable artifacts.
type stageIRun struct {
	outs []*Outcome
	ids  []int64
	res  *congest.Result
}

func compareStageIRuns(t *testing.T, name string, want, got stageIRun) {
	t.Helper()
	if !reflect.DeepEqual(want.ids, got.ids) {
		t.Fatalf("%s: id assignment mismatch", name)
	}
	if !reflect.DeepEqual(want.res.Metrics, got.res.Metrics) {
		t.Fatalf("%s: metrics mismatch:\nwant: %+v\ngot:  %+v",
			name, want.res.Metrics, got.res.Metrics)
	}
	if !reflect.DeepEqual(want.res.Verdicts, got.res.Verdicts) {
		t.Fatalf("%s: verdicts mismatch", name)
	}
	for v := range want.outs {
		wo, go_ := want.outs[v], got.outs[v]
		if (wo == nil) != (go_ == nil) {
			t.Fatalf("%s: node %d outcome presence mismatch", name, v)
		}
		if wo == nil {
			continue
		}
		if wo.RootID != go_.RootID || wo.Rejected != go_.Rejected ||
			wo.PhasesRun != go_.PhasesRun || wo.EarlyExit != go_.EarlyExit ||
			wo.Tree.ParentPort != go_.Tree.ParentPort ||
			!slices.Equal(wo.Tree.ChildPorts, go_.Tree.ChildPorts) {
			t.Fatalf("%s: node %d outcome mismatch:\nwant: %+v\ngot:  %+v",
				name, v, wo, go_)
		}
	}
}

// TestStageIBatchingEquivalence pins the DESIGN.md §10 contract: the
// super-round fast-forward changes nothing observable. Batched and
// unbatched (NoSuperRoundBatching) runs produce byte-identical Results —
// Metrics.Rounds, Messages, and TotalBits included — and identical
// per-node outcomes, across graph families, schedules, both Stage I
// variants, seeds, and worker counts {1, 2, 4}; and a run killed at a
// checkpoint cut inside a batched window resumes to the same Result.
func TestStageIBatchingEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	farG, _ := graph.PlanarPlusRandomEdges(60, 40, rng)
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid(9, 9)},
		{"tree-plus-edges", graph.TreePlusRandomEdges(70, 18, rand.New(rand.NewSource(5)))},
		{"planar-plus-edges", farG},
		{"cycle", graph.Cycle(53)},
	}

	t.Run("batched-vs-unbatched", func(t *testing.T) {
		for _, fam := range families {
			for _, sched := range []Schedule{PaperSchedule, PracticalSchedule} {
				for _, variant := range []Variant{Deterministic, Randomized} {
					for seed := int64(0); seed < 2; seed++ {
						opts := Options{Epsilon: 0.25, Schedule: sched, Variant: variant}
						unb := opts
						unb.NoSuperRoundBatching = true
						uOuts, uIDs, uRes, uErr := runStageI(fam.g, unb, seed, 1, congest.CheckpointConfig{}, nil)
						if uErr != nil {
							t.Fatalf("%s/%v/variant%d/seed%d: unbatched: %v", fam.name, sched, variant, seed, uErr)
						}
						want := stageIRun{uOuts, uIDs, uRes}
						for _, w := range []int{1, 2, 4} {
							name := fmt.Sprintf("%s/%v/variant%d/seed%d/w%d", fam.name, sched, variant, seed, w)
							bOuts, bIDs, bRes, bErr := runStageI(fam.g, opts, seed, w, congest.CheckpointConfig{}, nil)
							if bErr != nil {
								t.Fatalf("%s: batched: %v", name, bErr)
							}
							compareStageIRuns(t, name, want, stageIRun{bOuts, bIDs, bRes})
						}
					}
				}
			}
		}
	})

	t.Run("kill-and-resume-mid-window", func(t *testing.T) {
		defer faultpoint.Reset()
		g := graph.Grid(9, 9)
		for seed := int64(0); seed < 2; seed++ {
			opts := Options{Epsilon: 0.25, Schedule: PracticalSchedule, Variant: Deterministic}

			bOuts, bIDs, bRes, err := runStageI(g, opts, seed, 1, congest.CheckpointConfig{}, nil)
			if err != nil {
				t.Fatalf("seed%d: baseline: %v", seed, err)
			}
			base := stageIRun{bOuts, bIDs, bRes}

			// Probe: checkpoint every barrier and find one taken while some
			// node is fast-forwarding through a batched super-round window
			// (fdFF, set at the decision barrier and cleared at fdFinish)
			// and one inside a cascade quiet-tail window (cascFF).
			var nodes []*stageINode
			barrier, fdCrash, cascCrash := 0, -1, -1
			probe := congest.CheckpointConfig{
				EveryBarriers: 1,
				Sink: func(round int, data []byte) error {
					barrier++
					for _, sn := range nodes {
						if fdCrash < 0 && sn.fdFF {
							fdCrash = barrier
						}
						if cascCrash < 0 && sn.cascFF {
							cascCrash = barrier
						}
					}
					return nil
				},
			}
			if _, _, _, err := runStageI(g, opts, seed, 1, probe, &nodes); err != nil {
				t.Fatalf("seed%d: probe run: %v", seed, err)
			}
			if fdCrash < 0 {
				t.Fatalf("seed%d: no checkpoint barrier cut a super-round window (batching never engaged?)", seed)
			}
			if cascCrash < 0 {
				t.Fatalf("seed%d: no checkpoint barrier cut a cascade window (quiet tails never engaged?)", seed)
			}

			for _, cut := range []struct {
				name    string
				crashAt int
			}{{"fd-window", fdCrash}, {"cascade-window", cascCrash}} {
				// Kill at that barrier; the latest checkpoint is the
				// mid-window snapshot.
				var last []byte
				ck := congest.CheckpointConfig{
					EveryBarriers: 1,
					Sink:          func(round int, data []byte) error { last = data; return nil },
					OnError: func(round int, err error) {
						t.Errorf("seed%d/%s: checkpoint error at round %d: %v", seed, cut.name, round, err)
					},
				}
				boom := errors.New("injected crash")
				faultpoint.Arm(congest.FaultBarrier, cut.crashAt, func() error { return boom })
				_, _, _, err = runStageI(g, opts, seed, 1, ck, nil)
				faultpoint.Disarm(congest.FaultBarrier)
				if !errors.Is(err, boom) {
					t.Fatalf("seed%d/%s: expected injected crash at barrier %d, got %v", seed, cut.name, cut.crashAt, err)
				}
				if last == nil {
					t.Fatalf("seed%d/%s: no checkpoint captured before crash", seed, cut.name)
				}

				for _, w := range []int{1, 2, 4} {
					rOuts, rIDs, rRes, err := resumeStageI(g, opts, seed, w, last)
					if err != nil {
						t.Fatalf("seed%d/%s/w%d: resume: %v", seed, cut.name, w, err)
					}
					compareStageIRuns(t, fmt.Sprintf("resume/seed%d/%s/w%d", seed, cut.name, w),
						base, stageIRun{rOuts, rIDs, rRes})
				}
			}
		}
	})
}

// TestResumeInsideTrialPick checkpoints a randomized Stage I run at every
// barrier and resumes each checkpoint taken while a node is inside an
// open tTrialPick convergecast, on one and four workers, to the
// uninterrupted run's outcomes and Result. The pick's combiner draws
// from the folded node's randomness when the window resolves, so a
// restore must leave every draw count where the uninterrupted run had it.
func TestResumeInsideTrialPick(t *testing.T) {
	g := graph.Grid(6, 6)
	opts := Options{Epsilon: 0.25, Schedule: PracticalSchedule, Variant: Randomized}
	bOuts, bIDs, bRes, err := runStageI(g, opts, 1, 1, congest.CheckpointConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := stageIRun{bOuts, bIDs, bRes}
	var nodes []*stageINode
	var cuts [][]byte
	probe := congest.CheckpointConfig{
		EveryBarriers: 1,
		Sink: func(_ int, data []byte) error {
			for _, sn := range nodes {
				if sn.started && !sn.fdFF && !sn.cascFF && !sn.finished && sn.plan.ops[sn.pc].tag == tTrialPick {
					cuts = append(cuts, data)
					break
				}
			}
			return nil
		},
	}
	if _, _, _, err := runStageI(g, opts, 1, 1, probe, &nodes); err != nil {
		t.Fatal(err)
	}
	if len(cuts) == 0 {
		t.Fatal("no checkpoint cuts a tTrialPick window")
	}
	for k, snap := range cuts {
		for _, w := range []int{1, 4} {
			rOuts, rIDs, rRes, err := resumeStageI(g, opts, 1, w, snap)
			if err != nil {
				t.Fatalf("cut %d/w%d: %v", k, w, err)
			}
			compareStageIRuns(t, fmt.Sprintf("cut %d/w%d", k, w), base, stageIRun{rOuts, rIDs, rRes})
		}
	}
	t.Logf("%d checkpoints cut a tTrialPick window", len(cuts))
}
