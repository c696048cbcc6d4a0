package congest

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/graph"
)

// snapMsg is a registered test message so checkpointed mailboxes can
// carry it.
type snapMsg struct{ V int64 }

func (snapMsg) Bits() int { return 8 }

const snapTestMsgKind = 200

func init() {
	RegisterMessage(snapTestMsgKind, func(c *Snap, m *snapMsg) { c.Varint(&m.V) })
}

// snapProg is a minimal Snapshottable program: every round it forwards a
// rolling sum on all ports, draws one random value into the sum (so RNG
// replay is exercised), and at the deadline records a verdict derived
// from the sum.
type snapProg struct {
	started  bool
	deadline int
	sum      int64
}

const snapTestProgKind = 201

func (p *snapProg) SnapshotKind() uint16 { return snapTestProgKind }

func (p *snapProg) WalkState(c *Snap) {
	c.Bool(&p.started)
	c.Int(&p.deadline)
	c.Varint(&p.sum)
}

func (p *snapProg) Step(api *StepAPI, inbox []Inbound) Status {
	if !p.started {
		p.started = true
		p.deadline = 20
		p.sum = api.ID()
	}
	for _, in := range inbox {
		p.sum += in.Msg.(snapMsg).V
	}
	p.sum += api.Rand().Int63n(1000)
	if api.Round() >= p.deadline {
		if p.sum%2 == 0 {
			api.Output(VerdictAccept)
		} else {
			api.Output(VerdictReject)
		}
		return Done()
	}
	api.SendAll(snapMsg{V: p.sum % 97})
	return Running()
}

func snapTestConfig(g *graph.Graph, seed int64) Config {
	ids := make([]int64, g.N())
	rng := rand.New(rand.NewSource(seed))
	for i, p := range rng.Perm(g.N()) {
		ids[i] = int64(p + 1)
	}
	return Config{Graph: g, Seed: seed, IDs: ids, MaxRounds: 100}
}

func snapProgs(int) StepProgram { return &snapProg{} }

func snapRestore(node int, kind uint16, c *Snap) (StepProgram, error) {
	if kind != snapTestProgKind {
		return nil, fmt.Errorf("unexpected kind %d", kind)
	}
	p := &snapProg{}
	p.WalkState(c)
	return p, c.Err()
}

// TestSnapshotResumeEquivalence kills a run at a barrier and resumes from
// the last checkpoint, asserting a byte-identical Result and identical
// round count.
func TestSnapshotResumeEquivalence(t *testing.T) {
	defer faultpoint.Reset()
	g := graph.Grid(4, 4)
	for seed := int64(0); seed < 3; seed++ {
		base, err := RunStep(snapTestConfig(g, seed), snapProgs)
		if err != nil {
			t.Fatalf("seed %d: baseline: %v", seed, err)
		}
		for _, crashAt := range []int{2, 7, 15} {
			var last []byte
			cfg := snapTestConfig(g, seed)
			cfg.Checkpoint = CheckpointConfig{
				EveryBarriers: 1,
				Sink: func(round int, data []byte) error {
					last = data
					return nil
				},
			}
			boom := errors.New("boom")
			faultpoint.Arm(FaultBarrier, crashAt, func() error { return boom })
			_, err := RunStep(cfg, snapProgs)
			faultpoint.Disarm(FaultBarrier)
			if !errors.Is(err, boom) {
				t.Fatalf("seed %d crash@%d: expected injected fault, got %v", seed, crashAt, err)
			}
			if last == nil {
				t.Fatalf("seed %d crash@%d: no checkpoint captured", seed, crashAt)
			}
			info, err := InspectSnapshot(last)
			if err != nil {
				t.Fatalf("seed %d crash@%d: inspect: %v", seed, crashAt, err)
			}
			if info.N != g.N() || info.M != g.M() || info.Seed != seed {
				t.Fatalf("seed %d crash@%d: bad snapshot info %+v", seed, crashAt, info)
			}
			res, err := ResumeStep(snapTestConfig(g, seed), last, snapRestore)
			if err != nil {
				t.Fatalf("seed %d crash@%d: resume: %v", seed, crashAt, err)
			}
			if !reflect.DeepEqual(base, res) {
				t.Fatalf("seed %d crash@%d: resumed result differs:\nbase:    %+v\nresumed: %+v",
					seed, crashAt, base, res)
			}
		}
	}
}

// TestSnapshotCorruptionRejected asserts truncated and bit-flipped
// checkpoints fail validation instead of restoring garbage.
func TestSnapshotCorruptionRejected(t *testing.T) {
	defer faultpoint.Reset()
	g := graph.Cycle(8)
	var snap []byte
	cfg := snapTestConfig(g, 1)
	cfg.Checkpoint = CheckpointConfig{
		EveryBarriers: 5,
		Sink: func(round int, data []byte) error {
			if snap == nil {
				snap = append([]byte(nil), data...)
			}
			return nil
		},
	}
	if _, err := RunStep(cfg, snapProgs); err != nil {
		t.Fatalf("run: %v", err)
	}
	if snap == nil {
		t.Fatal("no checkpoint captured")
	}
	if _, err := ResumeStep(snapTestConfig(g, 1), snap, snapRestore); err != nil {
		t.Fatalf("pristine snapshot should resume: %v", err)
	}

	truncated := snap[:len(snap)-5]
	if _, err := InspectSnapshot(truncated); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("truncated: expected ErrBadSnapshot, got %v", err)
	}
	if _, err := ResumeStep(snapTestConfig(g, 1), truncated, snapRestore); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("truncated resume: expected ErrBadSnapshot, got %v", err)
	}

	flippedFooter := append([]byte(nil), snap...)
	flippedFooter[len(flippedFooter)-1] ^= 0x40
	if _, err := ResumeStep(snapTestConfig(g, 1), flippedFooter, snapRestore); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("flipped footer: expected ErrBadSnapshot, got %v", err)
	}

	flippedBody := append([]byte(nil), snap...)
	flippedBody[len(flippedBody)/2] ^= 0x01
	if _, err := ResumeStep(snapTestConfig(g, 1), flippedBody, snapRestore); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("flipped body: expected ErrBadSnapshot, got %v", err)
	}

	if _, err := InspectSnapshot([]byte("PCK1")); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("short data: expected ErrBadSnapshot, got %v", err)
	}
	wrongMagic := append([]byte(nil), snap...)
	copy(wrongMagic, "NOPE")
	if _, err := InspectSnapshot(wrongMagic); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("wrong magic: expected ErrBadSnapshot, got %v", err)
	}
}

// TestSnapshotSinkErrorsDoNotAbort asserts a failing checkpoint sink is
// reported to OnError but never changes the run's outcome (durability is
// lost, not correctness).
func TestSnapshotSinkErrorsDoNotAbort(t *testing.T) {
	g := graph.Cycle(6)
	base, err := RunStep(snapTestConfig(g, 2), snapProgs)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	var sinkErrs int
	cfg := snapTestConfig(g, 2)
	cfg.Checkpoint = CheckpointConfig{
		EveryBarriers: 1,
		Sink:          func(round int, data []byte) error { return errors.New("disk full") },
		OnError:       func(round int, err error) { sinkErrs++ },
	}
	res, err := RunStep(cfg, snapProgs)
	if err != nil {
		t.Fatalf("run with failing sink: %v", err)
	}
	if sinkErrs == 0 {
		t.Fatal("OnError never called")
	}
	if !reflect.DeepEqual(base, res) {
		t.Fatalf("failing sink changed the result:\nbase: %+v\ngot:  %+v", base, res)
	}
}

// TestSnapshotNotSnapshottable asserts runs of programs without snapshot
// support complete normally, reporting ErrNotSnapshottable once via
// OnError and then disabling checkpointing.
func TestSnapshotNotSnapshottable(t *testing.T) {
	g := graph.Cycle(6)
	var got []error
	cfg := snapTestConfig(g, 3)
	cfg.Checkpoint = CheckpointConfig{
		EveryBarriers: 1,
		Sink:          func(round int, data []byte) error { t.Error("sink called for plain program"); return nil },
		OnError:       func(round int, err error) { got = append(got, err) },
	}
	res, err := RunStep(cfg, func(int) StepProgram {
		return StepFunc(func(api *StepAPI, inbox []Inbound) Status {
			if api.Round() >= 5 {
				api.Output(VerdictAccept)
				return Done()
			}
			return Running()
		})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.Accepted() {
		t.Fatal("run did not complete")
	}
	if len(got) != 1 || !errors.Is(got[0], ErrNotSnapshottable) {
		t.Fatalf("expected exactly one ErrNotSnapshottable, got %v", got)
	}
}

// TestDeadlineExceeded asserts a past wall-clock deadline aborts the run
// with the typed error at a barrier.
func TestDeadlineExceeded(t *testing.T) {
	g := graph.Cycle(6)
	cfg := snapTestConfig(g, 4)
	cfg.Deadline = time.Now().Add(-time.Hour)
	_, err := RunStep(cfg, snapProgs)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expected ErrDeadlineExceeded, got %v", err)
	}
}
