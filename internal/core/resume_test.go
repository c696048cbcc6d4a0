package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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

// crashEveryBarrierDigests pins the PCK1 bytes of TestCrashEveryBarrier's
// runs: the SHA-256 of each run's ordered snapshot sequence (snapshotDigest).
// A layout change must bump the snapshot version and re-record these.
var crashEveryBarrierDigests = map[string]string{
	"grid/deterministic": "c79fd24901d0544cd6e2ff41247179d9889a59a8c9b4d49dc6bc0a548044f87f",
	"grid/randomized":    "3aad4c7bd696558abb65f936051cdbce329060be46aea95448812f929fd10807",
	"far/deterministic":  "82b1e913edc4a6a7e0667e293d26e187c704c540ec08487d1e795316d6ea5493",
}

// snapshotDigest hashes an ordered snapshot sequence: each snapshot's
// length, then its bytes.
func snapshotDigest(snaps [][]byte) string {
	h := sha256.New()
	for _, s := range snaps {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write(s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCrashEveryBarrier kills a small tester run at every barrier and
// resumes each crash. A crash at barrier b resumes from the checkpoint
// barrier b wrote, so the run checkpoints every barrier once and every
// checkpoint is resumed (alternating one and two workers), each to the
// uninterrupted run's exact RunResult. Every elided part-tree window
// (elide.go in internal/congest) spans at least its start barrier, so
// every window kind — Stage I broadcasts and convergecasts (the
// randomized variant's tTrialPick among them), the part-context depth
// probe and agreement, the counts broadcast, the rotation scatter and
// the sample stream — is cut at least once, at every offset into it;
// the test checks that some checkpoint of each run cuts the depth probe
// (TestResumeInsideTrialPick in internal/partition checks the trial
// pick's). The grid runs both Stage I variants; the far input, which
// StopOnReject also cuts inside open windows, runs the deterministic
// one.
//
// The snapshot bytes are pinned: each run's sequence hashes to its
// crashEveryBarrierDigests entry. Every 7th resumed run also checkpoints
// every barrier, and its snapshots must be the uninterrupted run's
// remaining ones byte for byte: a restore keeps no state that the
// uninterrupted run's checkpoints do not (open convergecast windows
// included), and loses none.
func TestCrashEveryBarrier(t *testing.T) {
	far, _ := graph.PlanarPlusRandomEdges(40, 30, rand.New(rand.NewSource(4)))
	both := []partition.Variant{partition.Deterministic, partition.Randomized}
	for _, fam := range []struct {
		name     string
		g        *graph.Graph
		variants []partition.Variant
	}{{"grid", graph.Grid(6, 6), both}, {"far", far, both[:1]}} {
		for _, v := range fam.variants {
			name := fam.name + "/" + map[partition.Variant]string{
				partition.Deterministic: "deterministic", partition.Randomized: "randomized"}[v]
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
				t.Fatalf("%s: %v", name, err)
			}
			if got, want := snapshotDigest(snaps), crashEveryBarrierDigests[name]; got != want {
				t.Errorf("%s: snapshot sequence digest %s, want %s", name, got, want)
			}
			probeCut := false
			eachRestored(t, fam.g, opts, snaps, func(_, _ int, p congest.StepProgram) {
				if c, ok := p.(*PartCtxStep); ok && c.pc == pcDepthDown {
					probeCut = true
				}
			})
			if !probeCut {
				t.Errorf("%s: no checkpoint cuts the part-context depth probe", name)
			}
			for b, snap := range snaps {
				res := opts
				res.Workers = 1 + b%2
				var again [][]byte
				if b%7 == 0 {
					res.Checkpoint = congest.CheckpointConfig{
						EveryBarriers: 1,
						Sink:          func(_ int, data []byte) error { again = append(again, data); return nil },
					}
				}
				got, err := ResumeTester(fam.g, res, 1, snap)
				if err != nil {
					t.Fatalf("%s: resume at barrier %d: %v", name, b+1, err)
				}
				if !reflect.DeepEqual(base, got) {
					t.Fatalf("%s: resumed at barrier %d of %d:\nbase:    %+v\nresumed: %+v",
						name, b+1, len(snaps), base, got)
				}
				if b%7 != 0 {
					continue
				}
				if len(again) != len(snaps)-b-1 {
					t.Fatalf("%s: resumed at barrier %d checkpoints %d barriers, want %d", name, b+1, len(again), len(snaps)-b-1)
				}
				for k, data := range again {
					if !bytes.Equal(data, snaps[b+1+k]) {
						t.Fatalf("%s: resumed at barrier %d checkpoints barrier %d differently", name, b+1, b+2+k)
					}
				}
			}
			t.Logf("%s: %d barriers, rejected=%v", name, len(snaps), base.Rejected)
		}
	}
}

// TestStageIIRegisterDropped decodes every checkpoint of a small tester
// run and checks that no Stage II node keeps a result register past its
// use: each one is consumed when the next op begins, and an edge list
// kept longer aliases the gather buffer that the sample gather refills.
func TestStageIIRegisterDropped(t *testing.T) {
	g := graph.Grid(6, 6)
	opts := Options{Epsilon: 0.25, Partition: partition.Options{Epsilon: 0.25, Schedule: partition.PracticalSchedule}}
	var snaps [][]byte
	run := opts
	run.Checkpoint = congest.CheckpointConfig{
		EveryBarriers: 1,
		Sink:          func(_ int, data []byte) error { snaps = append(snaps, data); return nil },
	}
	if _, err := RunTester(g, run, 1); err != nil {
		t.Fatal(err)
	}
	stage2 := 0
	eachRestored(t, g, opts, snaps, func(b, node int, p congest.StepProgram) {
		if s, ok := p.(*stage2Node); ok {
			stage2++
			if s.reg != nil {
				t.Errorf("barrier %d: node %d at op %d keeps register %T", b+1, node, s.pc, s.reg)
			}
		}
	})
	if stage2 == 0 {
		t.Fatal("no checkpoint holds a Stage II node")
	}
}

// eachRestored decodes every checkpoint of a seed-1 tester run on g
// without running a barrier, and calls visit with the checkpoint's index
// and each node and program it restores.
func eachRestored(t *testing.T, g *graph.Graph, opts Options, snaps [][]byte, visit func(b, node int, p congest.StepProgram)) {
	t.Helper()
	o := opts.withDefaults()
	stop := make(chan struct{})
	close(stop) // decode the checkpoint, run no barrier
	for b, snap := range snaps {
		restore := restoreTester(partition.NewStageIPlan(o.Partition, g.N()), o)
		cfg := testerConfig(g, 1, o)
		cfg.Cancel = stop
		_, err := congest.ResumeStep(cfg, snap, func(node int, kind uint16, c *congest.Snap) (congest.StepProgram, error) {
			p, err := restore(node, kind, c)
			if err == nil {
				visit(b, node, p)
			}
			return p, err
		})
		if err != nil && !errors.Is(err, congest.ErrCanceled) {
			t.Fatalf("barrier %d: %v", b+1, err)
		}
	}
}

// TestNarrowFieldsFailClosed rewrites node 0's phase, and separately its
// verdict, in a real checkpoint as 256+v, a value that wraps back to v in
// the field's 8-bit type, re-seals the SHA-256 footer, and expects the
// resume to fail with ErrBadSnapshot instead of restoring the wrapped
// value.
func TestNarrowFieldsFailClosed(t *testing.T) {
	defer faultpoint.Reset()
	g := graph.Grid(6, 6)
	opts := Options{Epsilon: 0.25, Partition: partition.Options{Epsilon: 0.25, Schedule: partition.PracticalSchedule}}
	snap := crashRun(t, g, opts, 0, 1, 20, "narrow")
	body := snap[:len(snap)-sha256.Size]
	// Node 0's record follows the magic, the version, the 14 header
	// fields and the n ids; its phase and verdict are its first two
	// varints, each one byte.
	off := len("PCK1")
	for k := 0; k < 1+14+g.N(); k++ {
		off = skipVarint(body, off)
	}
	for _, field := range []struct {
		name string
		at   int
	}{{"phase", off}, {"verdict", skipVarint(body, off)}} {
		v := body[field.at]
		crafted := append(append(append([]byte(nil), body[:field.at]...), 0x80|v, 0x02), body[field.at+1:]...)
		sum := sha256.Sum256(crafted)
		crafted = append(crafted, sum[:]...)
		if _, err := ResumeTester(g, opts, 0, crafted); !errors.Is(err, congest.ErrBadSnapshot) {
			t.Errorf("%s %d rewritten as %d: got %v, want ErrBadSnapshot", field.name, v, 256+int(v), err)
		}
	}
}

// skipVarint returns the offset just past the varint at b[off:].
func skipVarint(b []byte, off int) int {
	for b[off] >= 0x80 {
		off++
	}
	return off + 1
}
