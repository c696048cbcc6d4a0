package congest

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"runtime"

	"repro/internal/graphio"
)

// Checkpoint/restore for the step engine (DESIGN.md §9).
//
// A snapshot is taken at a round barrier, immediately after every due
// node has been stepped and its sends routed. At that point the engine
// is quiescent: all outboxes and duplicate-send bitsets are empty, the
// queued bitset is clear, and the only in-flight state is the mailboxes
// (messages deliverable at the next barrier). The scheduling structures
// (wake calendar, next-round list, mail-due list) are pure functions of
// the phase/deadline/mailbox slabs and are rebuilt on restore, so the
// format serializes only: the run header, the per-node slabs, each
// node's mailbox, its lazy RNG draw count, its program state via the
// Snapshottable interface, and the elided windows still open (elide.go). Restore re-enters the scheduler loop right
// after the barrier, so a restored run executes the exact same barrier
// sequence — and produces a byte-identical Result — as an uninterrupted
// one.

// snapshotMagic identifies the checkpoint format ("planar checkpoint,
// version 1"); snapshotVersion is bumped on any layout change.
const (
	snapshotMagic   = "PCK1"
	snapshotVersion = 4
)

// snapshotFooterLen is the length of the SHA-256 integrity footer.
const snapshotFooterLen = sha256.Size

// ErrNotSnapshottable is reported when a checkpoint is requested while
// some live node runs a program (or holds an in-flight message) that the
// snapshot layer cannot serialize. Test with errors.Is. The engine stops
// attempting checkpoints for the rest of the run when it sees this.
var ErrNotSnapshottable = errors.New("congest: program state not snapshottable")

// ErrBadSnapshot is reported (wrapped with detail) when snapshot bytes
// fail validation: short data, bad magic, unsupported version, integrity
// footer mismatch, or a malformed record. Test with errors.Is.
var ErrBadSnapshot = errors.New("congest: invalid snapshot")

// ErrDeadlineExceeded is the error reported (wrapped with round context)
// when a run exceeds Config.Deadline. Test with errors.Is.
var ErrDeadlineExceeded = errors.New("congest: deadline exceeded")

// Snapshottable is implemented by step programs that can serialize their
// state into a checkpoint. EncodeState writes every field Step can have
// mutated; SnapshotKind tags the encoding so the restore callback can
// dispatch to the right decoder. Function-valued fields cannot be
// serialized: owners must reinstall them on the first Step after a
// restore (the tree-machine state setters keep such fields out of the
// encoded state on purpose).
type Snapshottable interface {
	StepProgram
	// SnapshotKind identifies the program's encoding to RestoreFunc.
	SnapshotKind() uint16
	// EncodeState appends the program's mutable state to e.
	EncodeState(e *SnapEncoder)
}

// RestoreFunc reconstructs one node's program from its snapshot record.
// It receives the node index, the program's SnapshotKind, and a decoder
// positioned at the state EncodeState wrote (and must consume all of
// it). It is called once per live node, in node order.
type RestoreFunc func(node int, kind uint16, dec *SnapDecoder) (StepProgram, error)

// CheckpointConfig asks the engine to emit periodic snapshots of its own
// state. Checkpointing is best-effort by design: a failing Sink (or a
// run whose programs are not Snapshottable) never aborts the run — the
// error is reported through OnError and the simulation continues, so an
// injected checkpoint-I/O fault costs durability, not the result.
type CheckpointConfig struct {
	// EveryBarriers is the checkpoint cadence in executed barriers
	// (snapshots are only possible at barriers). 0 disables.
	EveryBarriers int
	// Sink receives each encoded snapshot with the round it was taken
	// at. The engine blocks while Sink runs; the data slice is not
	// reused afterwards.
	Sink func(round int, data []byte) error
	// OnError observes encode/Sink failures (optional). After an
	// ErrNotSnapshottable the engine stops attempting checkpoints.
	OnError func(round int, err error)
}

// SnapshotInfo is the decoded header of a snapshot, for validation and
// inventory without a full restore.
type SnapshotInfo struct {
	// Version is the snapshot format version.
	Version int
	// N and M are the node and edge counts of the graph the run was on.
	N, M int
	// Seed is the run seed.
	Seed int64
	// Round is the round the snapshot was taken at.
	Round int
	// Barriers is the number of barriers executed up to the snapshot.
	Barriers int64
}

// SnapEncoder accumulates the binary encoding of snapshot records. All
// integers use the canonical varint layout shared with graphio; the
// zero value is ready to use. Errors are sticky (see Msg).
type SnapEncoder struct {
	buf []byte
	err error
}

// Uvarint appends an unsigned varint.
func (e *SnapEncoder) Uvarint(v uint64) { e.buf = graphio.AppendUvarint(e.buf, v) }

// Varint appends a signed value, zigzag-mapped onto the unsigned layout.
func (e *SnapEncoder) Varint(v int64) { e.Uvarint(uint64(v)<<1 ^ uint64(v>>63)) }

// Int appends a signed int.
func (e *SnapEncoder) Int(v int) { e.Varint(int64(v)) }

// Bool appends a boolean as one byte.
func (e *SnapEncoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Bytes appends a length-prefixed byte slice.
func (e *SnapEncoder) Bytes(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Msg appends a message through the codec registry (nil encodes as kind
// 0). A message type with no registered codec makes the encoder fail
// sticky with ErrNotSnapshottable.
func (e *SnapEncoder) Msg(m Message) {
	if m == nil {
		e.Uvarint(0)
		return
	}
	kind, ok := msgKindByType[reflect.TypeOf(m)]
	if !ok {
		if e.err == nil {
			e.err = fmt.Errorf("%w: no codec for message type %T", ErrNotSnapshottable, m)
		}
		return
	}
	e.Uvarint(uint64(kind))
	msgCodecs[kind].enc(e, m)
}

// Msgs appends a message slice, preserving nil-ness and nil entries.
func (e *SnapEncoder) Msgs(ms []Message) {
	if ms == nil {
		e.Uvarint(0)
		return
	}
	e.Uvarint(uint64(len(ms)) + 1)
	for _, m := range ms {
		e.Msg(m)
	}
}

// Ints appends an int slice (nil-preserving).
func (e *SnapEncoder) Ints(vs []int) {
	if vs == nil {
		e.Uvarint(0)
		return
	}
	e.Uvarint(uint64(len(vs)) + 1)
	for _, v := range vs {
		e.Int(v)
	}
}

// Int64s appends an int64 slice (nil-preserving).
func (e *SnapEncoder) Int64s(vs []int64) {
	if vs == nil {
		e.Uvarint(0)
		return
	}
	e.Uvarint(uint64(len(vs)) + 1)
	for _, v := range vs {
		e.Varint(v)
	}
}

// Int32s appends an int32 slice (nil-preserving).
func (e *SnapEncoder) Int32s(vs []int32) {
	if vs == nil {
		e.Uvarint(0)
		return
	}
	e.Uvarint(uint64(len(vs)) + 1)
	for _, v := range vs {
		e.Varint(int64(v))
	}
}

// Bools appends a bool slice (nil-preserving).
func (e *SnapEncoder) Bools(vs []bool) {
	if vs == nil {
		e.Uvarint(0)
		return
	}
	e.Uvarint(uint64(len(vs)) + 1)
	for _, v := range vs {
		e.Bool(v)
	}
}

// Tree appends a Tree value.
func (e *SnapEncoder) Tree(t Tree) {
	e.Int(t.ParentPort)
	e.Ints(t.ChildPorts)
}

// SnapDecoder reads records written by SnapEncoder. Errors are sticky:
// after the first malformed read every getter returns a zero value, and
// Err reports the failure — callers check once at the end.
type SnapDecoder struct {
	buf []byte
	off int
	err error
}

// NewSnapDecoder returns a decoder over an encoded record.
func NewSnapDecoder(b []byte) *SnapDecoder { return &SnapDecoder{buf: b} }

func (d *SnapDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", ErrBadSnapshot, what, d.off)
	}
}

// Err returns the first decode failure, or nil.
func (d *SnapDecoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *SnapDecoder) Remaining() int { return len(d.buf) - d.off }

// Uvarint reads an unsigned varint.
func (d *SnapDecoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n, err := graphio.ConsumeUvarint(d.buf[d.off:])
	if err != nil {
		d.fail("varint")
		return 0
	}
	d.off += n
	return v
}

// Varint reads a zigzag-encoded signed value.
func (d *SnapDecoder) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads a signed int.
func (d *SnapDecoder) Int() int { return int(d.Varint()) }

// Bool reads one boolean byte (any value other than 0 or 1 is an error).
func (d *SnapDecoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.fail("truncated bool")
		return false
	}
	b := d.buf[d.off]
	d.off++
	if b > 1 {
		d.fail("bool out of range")
		return false
	}
	return b == 1
}

// Bytes reads a length-prefixed byte slice (aliasing the input buffer).
func (d *SnapDecoder) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail("truncated bytes")
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// Msg reads one message (kind 0 decodes as nil).
func (d *SnapDecoder) Msg() Message {
	kind := d.Uvarint()
	if d.err != nil || kind == 0 {
		return nil
	}
	c, ok := msgCodecs[uint16(kind)]
	if !ok || kind > 0xFFFF {
		d.fail(fmt.Sprintf("unknown message kind %d", kind))
		return nil
	}
	return c.dec(d)
}

// Msgs reads a message slice written by SnapEncoder.Msgs.
func (d *SnapDecoder) Msgs() []Message {
	n := d.Uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	n--
	if n > uint64(d.Remaining()) { // every entry costs >= 1 byte
		d.fail("truncated message slice")
		return nil
	}
	ms := make([]Message, n)
	for i := range ms {
		ms[i] = d.Msg()
	}
	return ms
}

// Ints reads an int slice written by SnapEncoder.Ints.
func (d *SnapDecoder) Ints() []int {
	n := d.Uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	n--
	if n > uint64(d.Remaining()) {
		d.fail("truncated int slice")
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = d.Int()
	}
	return vs
}

// Int64s reads an int64 slice written by SnapEncoder.Int64s.
func (d *SnapDecoder) Int64s() []int64 {
	n := d.Uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	n--
	if n > uint64(d.Remaining()) {
		d.fail("truncated int64 slice")
		return nil
	}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = d.Varint()
	}
	return vs
}

// Int32s reads an int32 slice written by SnapEncoder.Int32s.
func (d *SnapDecoder) Int32s() []int32 {
	n := d.Uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	n--
	if n > uint64(d.Remaining()) {
		d.fail("truncated int32 slice")
		return nil
	}
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = int32(d.Varint())
	}
	return vs
}

// Bools reads a bool slice written by SnapEncoder.Bools.
func (d *SnapDecoder) Bools() []bool {
	n := d.Uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	n--
	if n > uint64(d.Remaining()) {
		d.fail("truncated bool slice")
		return nil
	}
	vs := make([]bool, n)
	for i := range vs {
		vs[i] = d.Bool()
	}
	return vs
}

// Tree reads a Tree value.
func (d *SnapDecoder) Tree() Tree {
	var t Tree
	t.ParentPort = d.Int()
	t.ChildPorts = d.Ints()
	return t
}

// Message codec registry. Codecs are registered from init functions
// (congest, partition, core each own a disjoint kind range) and the maps
// are read-only afterwards, so lock-free concurrent reads are safe.
type msgCodec struct {
	enc func(e *SnapEncoder, m Message)
	dec func(d *SnapDecoder) Message
}

var (
	msgKindByType = map[reflect.Type]uint16{}
	msgCodecs     = map[uint16]msgCodec{}
)

// RegisterMessageCodec registers the snapshot codec for one message
// type, identified by a non-zero kind (kind 0 is reserved for nil).
// sample carries the concrete type; enc receives values of exactly that
// type. Call from init; duplicate kinds or types panic.
func RegisterMessageCodec(kind uint16, sample Message, enc func(e *SnapEncoder, m Message), dec func(d *SnapDecoder) Message) {
	if kind == 0 {
		panic("congest: message kind 0 is reserved")
	}
	if _, dup := msgCodecs[kind]; dup {
		panic(fmt.Sprintf("congest: duplicate message kind %d", kind))
	}
	t := reflect.TypeOf(sample)
	if _, dup := msgKindByType[t]; dup {
		panic(fmt.Sprintf("congest: duplicate message codec for %v", t))
	}
	msgKindByType[t] = kind
	msgCodecs[kind] = msgCodec{enc: enc, dec: dec}
}

// Engine-internal pipeline framing messages (tree.go). Bits are
// encoded rather than recomputed so a restored message is field-exact.
func init() {
	RegisterMessageCodec(1, pipeItem{},
		func(e *SnapEncoder, m Message) {
			p := m.(pipeItem)
			e.Msg(p.payload)
			e.Int(p.bits)
		},
		func(d *SnapDecoder) Message {
			var p pipeItem
			p.payload = d.Msg()
			p.bits = d.Int()
			return p
		})
	RegisterMessageCodec(2, pipeBatch{},
		func(e *SnapEncoder, m Message) {
			p := m.(pipeBatch)
			e.Msgs(p.payloads)
			e.Int(p.bits)
		},
		func(d *SnapDecoder) Message {
			var p pipeBatch
			p.payloads = d.Msgs()
			p.bits = d.Int()
			return p
		})
	RegisterMessageCodec(3, pipeEnd{},
		func(e *SnapEncoder, m Message) {},
		func(d *SnapDecoder) Message { return pipeEnd{} })
}

// encodeSnapshot serializes the full engine state at the current
// barrier. Called from the scheduler loop only (workers idle).
func (e *engine) encodeSnapshot() ([]byte, error) {
	// Gate first: a snapshot is all-or-nothing, so detect a
	// non-snapshottable program before encoding anything.
	for i := 0; i < e.n; i++ {
		if e.phase[i] != phaseWaiting {
			continue
		}
		if _, ok := e.hot[i].prog.(Snapshottable); !ok {
			return nil, fmt.Errorf("%w: node %d runs %T", ErrNotSnapshottable, i, e.hot[i].prog)
		}
	}
	enc := &SnapEncoder{buf: make([]byte, 0, 256+32*e.n)}
	enc.buf = append(enc.buf, snapshotMagic...)
	enc.Uvarint(snapshotVersion)
	enc.Uvarint(uint64(e.n))
	enc.Uvarint(uint64(e.g.M()))
	enc.Varint(e.seed)
	enc.Uvarint(uint64(e.bitBound))
	enc.Uvarint(uint64(e.maxRounds))
	enc.Bool(e.stopOnRej)
	enc.Uvarint(uint64(e.round))
	enc.Uvarint(uint64(e.barriers))
	enc.Uvarint(uint64(e.alive))
	enc.Bool(e.rejected)
	// Charged traffic is already in the totals: the barrier merge folds
	// every node's charges before a snapshot can be taken.
	enc.Uvarint(uint64(e.m.Messages))
	enc.Uvarint(uint64(e.m.TotalBits))
	enc.Uvarint(uint64(e.m.MaxMessageBits))
	enc.Uvarint(uint64(e.m.DroppedToDone))
	for _, id := range e.ids {
		enc.Varint(id)
	}
	var sub SnapEncoder
	for i := 0; i < e.n; i++ {
		enc.Uvarint(uint64(e.phase[i]))
		enc.Uvarint(uint64(e.verdicts[i]))
		enc.Bool(e.rejFlag[i])
		enc.Uvarint(uint64(e.modeled[i]))
		if e.phase[i] != phaseWaiting {
			continue // deadline, RNG, mailbox, program: dead state
		}
		enc.Uvarint(uint64(e.deadline[i]))
		if r := e.rngs[i]; r != nil {
			enc.Bool(true)
			enc.Uvarint(r.src.k)
		} else {
			enc.Bool(false)
		}
		mb := e.hot[i].mailbox
		enc.Uvarint(uint64(len(mb)))
		for _, in := range mb {
			enc.Uvarint(uint64(in.Port))
			enc.Uvarint(uint64(in.From))
			enc.Msg(in.Msg)
		}
		sp := e.hot[i].prog.(Snapshottable)
		sub.buf = sub.buf[:0]
		sub.err = nil
		sp.EncodeState(&sub)
		if sub.err != nil {
			return nil, fmt.Errorf("node %d (%T): %w", i, sp, sub.err)
		}
		enc.Uvarint(uint64(sp.SnapshotKind()))
		enc.Bytes(sub.buf)
	}
	e.encodeElideSection(enc)
	e.encodeObsSection(enc)
	if enc.err != nil {
		return nil, enc.err
	}
	sum := sha256.Sum256(enc.buf)
	return append(enc.buf, sum[:]...), nil
}

// openSnapshot validates magic, version, and the SHA-256 footer, and
// returns a decoder positioned at the header (after the version).
func openSnapshot(data []byte) (*SnapDecoder, error) {
	if len(data) < len(snapshotMagic)+1+snapshotFooterLen {
		return nil, fmt.Errorf("%w: %d bytes is too short", ErrBadSnapshot, len(data))
	}
	if string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadSnapshot, data[:len(snapshotMagic)])
	}
	body := data[:len(data)-snapshotFooterLen]
	sum := sha256.Sum256(body)
	if string(sum[:]) != string(data[len(body):]) {
		return nil, fmt.Errorf("%w: integrity footer mismatch", ErrBadSnapshot)
	}
	d := &SnapDecoder{buf: body, off: len(snapshotMagic)}
	if v := d.Uvarint(); v != snapshotVersion || d.err != nil {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadSnapshot, v)
	}
	return d, nil
}

// InspectSnapshot validates a snapshot's framing (magic, version,
// SHA-256 footer) and returns its header without restoring anything.
// Corrupt or truncated data fails with ErrBadSnapshot.
func InspectSnapshot(data []byte) (SnapshotInfo, error) {
	d, err := openSnapshot(data)
	if err != nil {
		return SnapshotInfo{}, err
	}
	info := SnapshotInfo{
		Version: snapshotVersion,
		N:       int(d.Uvarint()),
		M:       int(d.Uvarint()),
		Seed:    d.Varint(),
	}
	d.Uvarint() // bitBound
	d.Uvarint() // maxRounds
	d.Bool()    // stopOnReject
	info.Round = int(d.Uvarint())
	info.Barriers = int64(d.Uvarint())
	if d.err != nil {
		return SnapshotInfo{}, d.err
	}
	return info, nil
}

// ResumeStep restores a run from a snapshot and drives it to
// completion, returning the same Result an uninterrupted run would have
// produced. cfg.Graph must be the graph of the original run (node and
// edge counts are checked); the run parameters that shape the
// computation — seed, IDs, bit bound, round limit, stop-on-reject — are
// taken from the snapshot, while the execution environment (Workers,
// Cancel, Deadline, Checkpoint) comes from cfg. restore rebuilds each
// live node's program from its serialized state.
func ResumeStep(cfg Config, data []byte, restore RestoreFunc) (*Result, error) {
	d, err := openSnapshot(data)
	if err != nil {
		return nil, err
	}
	g := cfg.Graph
	if g == nil {
		return nil, errors.New("congest: ResumeStep needs cfg.Graph")
	}
	n := int(d.Uvarint())
	m := int(d.Uvarint())
	if n != g.N() || m != g.M() {
		return nil, fmt.Errorf("%w: snapshot is for an n=%d m=%d graph, got n=%d m=%d",
			ErrBadSnapshot, n, m, g.N(), g.M())
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	eng := &engine{
		g:            g,
		revPort:      g.RevPorts(),
		n:            n,
		seed:         d.Varint(),
		phase:        make([]nodePhase, n),
		deadline:     make([]int64, n),
		heapDl:       make([]int64, n),
		cal:          newCalendar(),
		hot:          make([]nodeHot, n),
		outbox:       make([][]outMsg, n),
		rejFlag:      make([]bool, n),
		modeled:      make([]int64, n),
		charged:      make([]charge, n),
		rngs:         make([]*nodeRand, n),
		apis:         make([]StepAPI, n),
		verdicts:     make([]Verdict, n),
		ids:          make([]int64, n),
		bitBound:     int(d.Uvarint()),
		maxRounds:    int(d.Uvarint()),
		stopOnRej:    d.Bool(),
		workers:      workers,
		cancel:       cfg.Cancel,
		ckpt:         cfg.Checkpoint,
		wallDeadline: cfg.Deadline,
	}
	eng.round = int(d.Uvarint())
	eng.barriers = int64(d.Uvarint())
	eng.alive = int(d.Uvarint())
	eng.rejected = d.Bool()
	eng.m.BitBound = eng.bitBound
	eng.m.Messages = int64(d.Uvarint())
	eng.m.TotalBits = int64(d.Uvarint())
	eng.m.MaxMessageBits = int(d.Uvarint())
	eng.m.DroppedToDone = int64(d.Uvarint())
	for i := range eng.ids {
		eng.ids[i] = d.Varint()
	}
	if d.err != nil {
		return nil, d.err
	}
	sentWords := 0
	for i := 0; i < n; i++ {
		sentWords += (g.Degree(i) + 63) / 64
	}
	eng.sentBits = make([]uint64, sentWords)
	off := int32(0)
	for i := 0; i < n; i++ {
		deg := g.Degree(i)
		eng.apis[i] = StepAPI{eng: eng, node: int32(i), degree: int32(deg), sentOff: off, id: eng.ids[i]}
		off += int32((deg + 63) / 64)
	}

	alive := 0
	for i := 0; i < n; i++ {
		ph := nodePhase(d.Uvarint())
		if ph != phaseWaiting && ph != phaseDone {
			return nil, fmt.Errorf("%w: node %d has phase %d", ErrBadSnapshot, i, ph)
		}
		eng.phase[i] = ph
		eng.verdicts[i] = Verdict(d.Uvarint())
		eng.rejFlag[i] = d.Bool()
		eng.modeled[i] = int64(d.Uvarint())
		if ph != phaseWaiting {
			continue
		}
		alive++
		eng.deadline[i] = int64(d.Uvarint())
		if eng.deadline[i] <= int64(eng.round) {
			return nil, fmt.Errorf("%w: node %d deadline %d not after round %d",
				ErrBadSnapshot, i, eng.deadline[i], eng.round)
		}
		if d.Bool() {
			draws := d.Uvarint()
			if d.err != nil {
				return nil, d.err
			}
			eng.newNodeRand(i, draws)
		}
		nmail := d.Uvarint()
		if nmail > uint64(d.Remaining()) {
			return nil, fmt.Errorf("%w: node %d mailbox length %d", ErrBadSnapshot, i, nmail)
		}
		deg := uint64(g.Degree(i))
		for k := uint64(0); k < nmail; k++ {
			port := d.Uvarint()
			from := d.Uvarint()
			msg := d.Msg()
			if d.err != nil {
				return nil, d.err
			}
			if port >= deg || from >= uint64(n) {
				return nil, fmt.Errorf("%w: node %d mailbox entry %d out of range", ErrBadSnapshot, i, k)
			}
			eng.hot[i].mailbox = append(eng.hot[i].mailbox, Inbound{Port: int(port), From: int(from), Msg: msg})
		}
		kind := d.Uvarint()
		state := d.Bytes()
		if d.err != nil {
			return nil, d.err
		}
		sub := NewSnapDecoder(state)
		prog, rerr := restore(i, uint16(kind), sub)
		if rerr != nil {
			return nil, fmt.Errorf("congest: restore node %d (kind %d): %w", i, kind, rerr)
		}
		if sub.err != nil {
			return nil, fmt.Errorf("node %d: %w", i, sub.err)
		}
		if sub.Remaining() != 0 {
			return nil, fmt.Errorf("%w: node %d program state has %d trailing bytes",
				ErrBadSnapshot, i, sub.Remaining())
		}
		eng.hot[i].prog = prog
	}
	if err := eng.decodeElideSection(d); err != nil {
		return nil, err
	}
	eng.initObs(cfg)
	eng.decodeObsSection(d)
	if d.err != nil {
		return nil, d.err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, d.Remaining())
	}
	if alive != eng.alive {
		return nil, fmt.Errorf("%w: header says %d live nodes, records have %d",
			ErrBadSnapshot, eng.alive, alive)
	}

	// Rebuild the scheduling structures from the slabs. They are
	// equivalent to (not bitwise-identical with) the originals — e.g. a
	// node that entered the original calendar with deadline round+1
	// lands in nrList here, and no stale entries are rebuilt — but both
	// layouts wake the exact same due set in the exact same (ascending)
	// order at every subsequent barrier, which is all the scheduler's
	// behavior depends on.
	for i := 0; i < n; i++ {
		if eng.phase[i] != phaseWaiting {
			continue
		}
		if len(eng.hot[i].mailbox) > 0 {
			eng.mailDue = append(eng.mailDue, int32(i))
		}
		if dl := eng.deadline[i]; dl == int64(eng.round+1) {
			eng.nrList = append(eng.nrList, int32(i))
		} else {
			eng.heapDl[i] = dl
			eng.cal.add(dl, []int32{int32(i)}, -1)
		}
	}

	eng.run(nil, true)
	return eng.finish()
}
