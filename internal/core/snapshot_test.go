package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/partition"
)

// fuzzRecordOpts are the options of the runs FuzzSnapRecord's seeds are
// cut from; its restore path uses them too.
func fuzzRecordOpts(v partition.Variant) Options {
	return Options{Epsilon: 0.25, Partition: partition.Options{
		Epsilon: 0.25, Variant: v, Schedule: partition.PracticalSchedule}}
}

// Record selectors: the first byte of a FuzzSnapRecord input picks the
// decoder the rest goes through.
const (
	fuzzMsg = iota
	fuzzStageI
	fuzzPartCtx
	fuzzStageII
	fuzzRandStageI
)

// cutRecords walks a checkpoint's layout and returns its program records
// (kind and state bytes) and its mailbox messages, each as the bytes it
// occupies in the checkpoint.
func cutRecords(t testing.TB, snap []byte) (progs map[uint16][][]byte, msgs [][]byte) {
	body := snap[len("PCK1") : len(snap)-sha256.Size]
	c := congest.NewSnapReader(body)
	at := func() int { return len(body) - c.Remaining() }
	// The version, n, and the other 13 header fields, then the n ids.
	// Every field is one varint: a bool byte reads as a one-byte uvarint.
	var u uint64
	var b bool
	var n int
	c.Uvarint(&u)
	congest.SnapUint(c, &n, math.MaxInt32)
	for k := 0; k < 13+n; k++ {
		c.Uvarint(&u)
	}
	progs = map[uint16][][]byte{}
	for i := 0; i < n; i++ {
		var phase uint64
		c.Uvarint(&phase)
		c.Uvarint(&u)
		c.Bool(&b)
		c.Uvarint(&u)
		if phase != 0 {
			continue
		}
		c.Uvarint(&u)
		if c.Bool(&b); b {
			c.Uvarint(&u)
		}
		var nmail int
		congest.SnapUint(c, &nmail, math.MaxInt)
		for k := 0; k < nmail; k++ {
			c.Uvarint(&u)
			c.Uvarint(&u)
			start := at()
			var m congest.Message
			c.Msg(&m)
			msgs = append(msgs, body[start:at()])
		}
		var kind uint64
		var state []byte
		c.Uvarint(&kind)
		c.Bytes(&state)
		progs[uint16(kind)] = append(progs[uint16(kind)], state)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("cutting records: %v", err)
	}
	return progs, msgs
}

// seedsPerRecord is the number of FuzzSnapRecord seeds per run and
// record selector. Go names seeds by position (seed#0, seed#1, ...), so
// a fixed count keeps every name when a change to the engine makes
// checkpoints fewer or their records more alike.
const seedsPerRecord = 26

// snapRecordSeeds returns FuzzSnapRecord's seeds: program records and
// mailbox messages of real checkpoints, each behind its selector byte,
// seedsPerRecord per run and selector (spread over the run's distinct
// records, cycling them when there are fewer), then one empty record
// per selector, which every decoder must reject.
func snapRecordSeeds(t testing.TB) [][]byte {
	far, _ := graph.PlanarPlusRandomEdges(40, 30, rand.New(rand.NewSource(4)))
	var seeds [][]byte
	for _, run := range []struct {
		g    *graph.Graph
		v    partition.Variant
		kind map[uint16]byte
	}{
		{graph.Grid(6, 6), partition.Deterministic, map[uint16]byte{
			partition.SnapKindStageI: fuzzStageI, SnapKindPartCtx: fuzzPartCtx, SnapKindStageII: fuzzStageII}},
		{graph.Grid(6, 6), partition.Randomized, map[uint16]byte{partition.SnapKindStageI: fuzzRandStageI}},
		{far, partition.Deterministic, map[uint16]byte{
			partition.SnapKindStageI: fuzzStageI, SnapKindPartCtx: fuzzPartCtx, SnapKindStageII: fuzzStageII}},
	} {
		var snaps [][]byte
		opts := fuzzRecordOpts(run.v)
		opts.Workers = 1
		opts.Checkpoint = congest.CheckpointConfig{
			EveryBarriers: 1,
			Sink:          func(_ int, data []byte) error { snaps = append(snaps, data); return nil },
		}
		if _, err := RunTester(run.g, opts, 1); err != nil {
			t.Fatal(err)
		}
		// The distinct records of each selector, in checkpoint order.
		seen := map[string]bool{}
		distinct := map[byte][][]byte{}
		add := func(sel byte, rec []byte) {
			in := append([]byte{sel}, rec...)
			if !seen[string(in)] {
				seen[string(in)] = true
				distinct[sel] = append(distinct[sel], in)
			}
		}
		for _, snap := range snaps {
			progs, msgs := cutRecords(t, snap)
			for kind, recs := range progs {
				if sel, ok := run.kind[kind]; ok {
					add(sel, recs[len(recs)/2])
				}
			}
			for _, m := range msgs {
				add(fuzzMsg, m)
			}
		}
		sels := []byte{fuzzMsg}
		for _, sel := range run.kind {
			sels = append(sels, sel)
		}
		slices.Sort(sels)
		for _, sel := range sels {
			recs := distinct[sel]
			if len(recs) == 0 {
				t.Fatalf("run %v/%d: no record for selector %d", run.v, run.g.N(), sel)
			}
			for k := 0; k < seedsPerRecord; k++ {
				if len(recs) >= seedsPerRecord {
					seeds = append(seeds, recs[k*len(recs)/seedsPerRecord])
				} else {
					seeds = append(seeds, recs[k%len(recs)])
				}
			}
		}
	}
	for sel := byte(fuzzMsg); sel <= fuzzRandStageI; sel++ {
		seeds = append(seeds, []byte{sel})
	}
	return seeds
}

// checkSnapRecord decodes one selector-prefixed record through the
// decoder a resume runs for it: the per-kind program restore or the
// message declarations. It must not panic; a rejected record must fail
// with an error wrapping ErrBadSnapshot; an accepted one must re-encode
// to exactly its bytes.
func checkSnapRecord(t *testing.T, in []byte) {
	if len(in) == 0 {
		return
	}
	rec := in[1:]
	r := congest.NewSnapReader(rec)
	var w congest.Snap
	var err error
	switch sel := in[0] % 5; sel {
	case fuzzMsg:
		var m congest.Message
		r.Msg(&m)
		err = r.Err()
		if err == nil {
			w.Msg(&m)
		}
	default:
		o := fuzzRecordOpts(partition.Deterministic)
		kind := uint16(sel)
		if sel == fuzzRandStageI {
			o, kind = fuzzRecordOpts(partition.Randomized), partition.SnapKindStageI
		}
		o = o.withDefaults()
		restore := restoreTester(partition.NewStageIPlan(o.Partition, 36), o)
		var p congest.StepProgram
		if p, err = restore(0, kind, r); err == nil {
			p.(congest.Snapshottable).WalkState(&w)
		}
	}
	if err != nil {
		if !errors.Is(err, congest.ErrBadSnapshot) {
			t.Fatalf("%x: error does not wrap ErrBadSnapshot: %v", in, err)
		}
		return
	}
	if r.Remaining() != 0 {
		return // a valid record followed by bytes the resume would reject
	}
	if w.Err() != nil {
		t.Fatalf("%x: re-encoding an accepted record: %v", in, w.Err())
	}
	if !bytes.Equal(w.Data(), rec) {
		t.Fatalf("accepted record re-encodes differently:\n in  %x\n out %x", rec, w.Data())
	}
}

// FuzzSnapRecord fuzzes the PCK1 record decoders (checkSnapRecord),
// seeded with the program records and mailbox messages of real
// checkpoints. The engine-level ResumeStep stays out: a crafted RNG draw
// count still replays its draws linearly.
func FuzzSnapRecord(f *testing.F) {
	for _, s := range snapRecordSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(checkSnapRecord)
}

// TestSnapRecordByteFlips runs checkSnapRecord on every one-byte
// change (plus or minus one) of every FuzzSnapRecord seed, so the
// decoders' contract is checked deterministically, not only by chance
// mutations. A seed repeated by the cycling is swept once.
func TestSnapRecordByteFlips(t *testing.T) {
	flipped := map[string]bool{}
	for _, s := range snapRecordSeeds(t) {
		if flipped[string(s)] {
			continue // a cycled seed
		}
		flipped[string(s)] = true
		for i := 1; i < len(s); i++ {
			for _, d := range []byte{1, 0xff} {
				in := append([]byte(nil), s...)
				in[i] += d
				checkSnapRecord(t, in)
			}
		}
	}
}
