package congest

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
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
// Snapshottable interface, and the elided and by-reference windows and
// the tree ops still open (elide.go, converge.go, tree_step.go).
// Restore re-enters the scheduler loop right after the barrier, so a
// restored run executes the exact same barrier sequence — and produces a
// byte-identical Result — as an uninterrupted one.

// snapshotMagic identifies the checkpoint format ("planar checkpoint,
// version 1"); snapshotVersion is bumped on any layout change.
const (
	snapshotMagic   = "PCK1"
	snapshotVersion = 7
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
// state into a checkpoint. WalkState walks every field Step can have
// mutated (see Snap); SnapshotKind tags the record so the restore
// callback can dispatch to the right program type. Function-valued
// fields cannot be serialized, so no tree machine holds one: combiners
// and depth-probe messages are walked as their registered kinds, and a
// program's callbacks come from its RestoreFunc.
type Snapshottable interface {
	StepProgram
	// SnapshotKind identifies the program's record to RestoreFunc.
	SnapshotKind() uint16
	// WalkState walks the program's mutable state through c.
	WalkState(c *Snap)
}

// RestoreFunc reconstructs one node's program from its snapshot record.
// It receives the node index, the program's SnapshotKind, and a decoding
// Snap positioned at the state WalkState wrote (the program's walk must
// consume all of it). It is called once per live node, in node order.
// A malformed record should fail with an error wrapping ErrBadSnapshot.
type RestoreFunc func(node int, kind uint16, c *Snap) (StepProgram, error)

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

// Snap is the PCK1 record codec. Every record is written once, as a walk
// over its fields: each primitive takes a pointer to a field, appends the
// field's value when the Snap encodes, and overwrites the field when it
// decodes, so one walk both writes a record and reads it back. Integers
// use the canonical varint layout shared with graphio. The zero value
// encodes; NewSnapReader returns a decoding Snap.
//
// Errors are sticky: after the first failure a decoding walk reads
// nothing more and Err reports it — walks check once at the end. Decoding fails closed
// with ErrBadSnapshot: on truncated or non-canonical bytes, and on any
// value outside the range its field can hold (SnapInt, SnapUint). An
// encoding walk fails the same way on a value its decoder would reject,
// and with ErrNotSnapshottable on a message type with no declaration.
type Snap struct {
	buf []byte
	off int // decoding: read position
	dec bool
	err error
}

// NewSnapReader returns a Snap that decodes the record b.
func NewSnapReader(b []byte) *Snap { return &Snap{buf: b, dec: true} }

// Decoding reports whether the walk reads fields (true) or writes them.
func (c *Snap) Decoding() bool { return c.dec }

// Err returns the first failure, or nil.
func (c *Snap) Err() error { return c.err }

// Data returns the bytes an encoding Snap has written.
func (c *Snap) Data() []byte { return c.buf }

// Remaining returns the number of unread bytes of a decoding Snap.
func (c *Snap) Remaining() int { return len(c.buf) - c.off }

// fail records a sticky ErrBadSnapshot failure with the given detail.
func (c *Snap) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s at offset %d", ErrBadSnapshot, fmt.Sprintf(format, args...), c.off)
	}
}

// Uvarint walks an unsigned varint.
func (c *Snap) Uvarint(v *uint64) {
	if c.dec {
		c.readUvarint(v)
		return
	}
	c.buf = graphio.AppendUvarint(c.buf, *v)
}

func (c *Snap) readUvarint(v *uint64) {
	if c.err != nil {
		return
	}
	u, n, err := graphio.ConsumeUvarint(c.buf[c.off:])
	if err != nil {
		c.fail("varint")
		return
	}
	c.off += n
	*v = u
}

// Varint walks a signed value, zigzag-mapped onto the unsigned layout.
func (c *Snap) Varint(v *int64) {
	if !c.dec {
		c.buf = graphio.AppendUvarint(c.buf, uint64(*v)<<1^uint64(*v>>63))
		return
	}
	var u uint64
	c.readUvarint(&u)
	if c.err == nil {
		*v = int64(u>>1) ^ -int64(u&1)
	}
}

// Int walks a signed int.
func (c *Snap) Int(v *int) {
	x := int64(*v)
	c.Varint(&x)
	if c.dec {
		*v = int(x)
	}
}

// Int32 walks an int32 as a signed varint.
func (c *Snap) Int32(v *int32) { SnapInt(c, v, math.MinInt32, math.MaxInt32) }

// Float64 walks a float64 as the unsigned varint of its IEEE 754 bits.
func (c *Snap) Float64(v *float64) {
	u := math.Float64bits(*v)
	c.Uvarint(&u)
	if c.dec {
		*v = math.Float64frombits(u)
	}
}

// Bool walks a boolean as one byte (decoding rejects any byte but 0, 1).
func (c *Snap) Bool(v *bool) {
	if c.dec {
		c.readBool(v)
		return
	}
	b := byte(0)
	if *v {
		b = 1
	}
	c.buf = append(c.buf, b)
}

func (c *Snap) readBool(v *bool) {
	if c.err != nil {
		return
	}
	if c.off >= len(c.buf) {
		c.fail("truncated bool")
		return
	}
	b := c.buf[c.off]
	if b > 1 {
		c.fail("bool out of range")
		return
	}
	c.off++
	*v = b == 1
}

// Bytes walks a length-prefixed byte slice (decoding aliases the input).
func (c *Snap) Bytes(v *[]byte) {
	n := len(*v)
	c.count(&n)
	if !c.dec {
		c.buf = append(c.buf, *v...)
		return
	}
	if c.err == nil {
		*v = c.buf[c.off : c.off+n]
		c.off += n
	}
}

// count walks a count of the items that follow. Every item costs at least
// one byte, so decoding rejects a count above the bytes left.
func (c *Snap) count(n *int) {
	SnapUint(c, n, math.MaxInt)
	if c.dec && c.err == nil && *n > c.Remaining() {
		c.fail("count %d exceeds the %d bytes left", *n, c.Remaining())
	}
}

// Tree walks a Tree value.
func (c *Snap) Tree(t *Tree) {
	c.Int(&t.ParentPort)
	c.Ints(&t.ChildPorts)
}

// Ints walks an int slice (nil-preserving).
func (c *Snap) Ints(v *[]int) { SnapSlice(c, v, (*Snap).Int) }

// Int64s walks an int64 slice (nil-preserving).
func (c *Snap) Int64s(v *[]int64) { SnapSlice(c, v, (*Snap).Varint) }

// Int32s walks an int32 slice (nil-preserving).
func (c *Snap) Int32s(v *[]int32) { SnapSlice(c, v, (*Snap).Int32) }

// Bools walks a bool slice (nil-preserving).
func (c *Snap) Bools(v *[]bool) { SnapSlice(c, v, (*Snap).Bool) }

// Msgs walks a message slice, preserving nil-ness and nil entries.
func (c *Snap) Msgs(v *[]Message) { SnapSlice(c, v, (*Snap).Msg) }

// Msg walks one message through its kind's declaration (RegisterMessage);
// nil is kind 0.
func (c *Snap) Msg(m *Message) {
	var d msgDecl
	if !c.dec && *m != nil {
		var ok bool
		if d, ok = msgByType[reflect.TypeOf(*m)]; !ok {
			if c.err == nil {
				c.err = fmt.Errorf("%w: no codec for message type %T", ErrNotSnapshottable, *m)
			}
			return
		}
	}
	SnapUint(c, &d.kind, math.MaxUint16)
	if c.err != nil {
		return
	}
	if d.kind == 0 {
		if c.dec {
			*m = nil
		}
		return
	}
	if c.dec {
		var ok bool
		if d, ok = msgByKind[d.kind]; !ok {
			c.fail("unknown message kind %d", d.kind)
			return
		}
	}
	d.walk(c, m)
}

// integer is the set of types SnapInt and SnapUint narrow into.
type integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// SnapInt walks *v as a signed varint (the layout of Int) and fails the
// walk with ErrBadSnapshot unless the value lies in [lo, hi]; a decoded
// value that does not fit T never wraps into range.
func SnapInt[T integer](c *Snap, v *T, lo, hi T) {
	x := int64(*v)
	c.Varint(&x)
	if t := T(x); int64(t) != x || t < lo || t > hi {
		c.fail("value %d outside [%d, %d]", x, lo, hi)
		return
	}
	if c.dec {
		*v = T(x)
	}
}

// SnapUint walks *v as an unsigned varint (the layout of Uvarint) and
// fails the walk with ErrBadSnapshot unless the value lies in [0, hi].
func SnapUint[T integer](c *Snap, v *T, hi T) {
	x := uint64(*v)
	c.Uvarint(&x)
	if t := T(x); uint64(t) != x || t < 0 || t > hi {
		c.fail("value %d outside [0, %d]", x, hi)
		return
	}
	if c.dec {
		*v = T(x)
	}
}

// SnapSlice walks a nil-preserving slice: 0 for nil, else the length
// plus one, then each element through elem. Every element must cost at
// least one byte, so decoding rejects a length above the bytes left.
func SnapSlice[S ~[]T, T any](c *Snap, s *S, elem func(*Snap, *T)) {
	n := 0
	if *s != nil {
		n = len(*s) + 1
	}
	SnapUint(c, &n, math.MaxInt)
	if c.dec {
		if n == 0 || c.err != nil {
			*s = nil
			return
		}
		if n-1 > c.Remaining() {
			c.fail("slice length %d exceeds the %d bytes left", n-1, c.Remaining())
			return
		}
		*s = make(S, n-1)
	}
	for i := range *s {
		elem(c, &(*s)[i])
	}
}

// SnapList walks a slice whose nil-ness carries no meaning: its length,
// then each element through elem. An empty slice decodes as nil, so a
// record does not depend on whether a list was cut from a reused buffer.
// Every element must cost at least one byte, as for SnapSlice.
func SnapList[S ~[]T, T any](c *Snap, s *S, elem func(*Snap, *T)) {
	n := len(*s)
	c.count(&n)
	if c.dec {
		if n == 0 || c.err != nil {
			*s = nil
			return
		}
		*s = make(S, n)
	}
	for i := range *s {
		elem(c, &(*s)[i])
	}
}

// Message declarations. Each message kind is declared once, from an init
// function (congest, partition, core each own a disjoint kind range), and
// the maps are read-only afterwards, so lock-free concurrent reads are
// safe.
type msgDecl struct {
	kind uint16
	walk func(c *Snap, m *Message)
}

var (
	msgByType = map[reflect.Type]msgDecl{}
	msgByKind = map[uint16]msgDecl{}
)

// RegisterMessage declares the snapshot record of message type M under a
// non-zero kind (kind 0 is reserved for nil): walk walks M's fields. A
// pointer type's walk allocates the value when decoding. Call from init;
// duplicate kinds or types panic.
func RegisterMessage[M Message](kind uint16, walk func(c *Snap, m *M)) {
	if kind == 0 {
		panic("congest: message kind 0 is reserved")
	}
	if _, dup := msgByKind[kind]; dup {
		panic(fmt.Sprintf("congest: duplicate message kind %d", kind))
	}
	t := reflect.TypeFor[M]()
	if _, dup := msgByType[t]; dup {
		panic(fmt.Sprintf("congest: duplicate message codec for %v", t))
	}
	d := msgDecl{kind: kind, walk: func(c *Snap, p *Message) {
		var m M
		if !c.dec {
			m = (*p).(M)
		}
		walk(c, &m)
		if c.dec {
			*p = m
		}
	}}
	msgByType[t], msgByKind[kind] = d, d
}

// Engine-internal pipeline framing messages (tree.go). Bits are
// walked rather than recomputed so a restored message is field-exact.
func init() {
	RegisterMessage(1, func(c *Snap, p *pipeItem) {
		c.Msg(&p.payload)
		c.Int(&p.bits)
	})
	RegisterMessage(2, func(c *Snap, p *pipeBatch) {
		c.Msgs(&p.payloads)
		c.Int(&p.bits)
	})
	RegisterMessage(3, func(*Snap, *pipeEnd) {})
}

// snapHeader is the run header of a snapshot, after the magic and the
// version.
type snapHeader struct {
	n, m                int
	seed                int64
	bitBound, maxRounds int
	stopOnRej           bool
	round               int
	barriers            int64
	alive               int
	rejected            bool
	messages, totalBits int64
	maxMsgBits          int
	droppedToDone       int64
}

func (h *snapHeader) walk(c *Snap) {
	SnapUint(c, &h.n, math.MaxInt32)
	SnapUint(c, &h.m, math.MaxInt)
	c.Varint(&h.seed)
	SnapUint(c, &h.bitBound, math.MaxInt)
	SnapUint(c, &h.maxRounds, math.MaxInt)
	c.Bool(&h.stopOnRej)
	SnapUint(c, &h.round, math.MaxInt)
	SnapUint(c, &h.barriers, math.MaxInt64)
	SnapUint(c, &h.alive, h.n)
	c.Bool(&h.rejected)
	// Charged traffic is already in the totals: the barrier merge folds
	// every node's charges before a snapshot can be taken.
	SnapUint(c, &h.messages, math.MaxInt64)
	SnapUint(c, &h.totalBits, math.MaxInt64)
	SnapUint(c, &h.maxMsgBits, math.MaxInt)
	SnapUint(c, &h.droppedToDone, math.MaxInt64)
}

// walkBody walks everything after the header: the node ids, each node's
// record, the open elided and by-reference windows, the open tree ops
// and the obs section. Decoding rebuilds each live node's program
// through restore.
func (e *engine) walkBody(c *Snap, restore RestoreFunc) {
	for i := range e.ids {
		c.Varint(&e.ids[i])
	}
	var sub Snap
	for i := 0; i < e.n && c.err == nil; i++ {
		e.walkNode(c, &sub, i, restore)
	}
	e.walkElideSection(c)
	e.walkCvgSection(c)
	e.walkOpsSection(c)
	e.walkObsSection(c)
}

// walkNode walks node i's record: its slab entries and, while it waits,
// its deadline, lazy RNG draw count, mailbox and program state (encoded
// through sub, a reused buffer).
func (e *engine) walkNode(c *Snap, sub *Snap, i int, restore RestoreFunc) {
	SnapUint(c, &e.phase[i], phaseDone)
	SnapUint(c, &e.verdicts[i], VerdictReject)
	c.Bool(&e.rejFlag[i])
	SnapUint(c, &e.modeled[i], math.MaxInt64)
	if e.phase[i] != phaseWaiting {
		return // deadline, RNG, mailbox, program: dead state
	}
	SnapUint(c, &e.deadline[i], math.MaxInt64)
	if e.deadline[i] <= int64(e.round) {
		c.fail("node %d deadline %d not after round %d", i, e.deadline[i], e.round)
	}
	rng := e.rngs[i] != nil
	c.Bool(&rng)
	if rng {
		var draws uint64
		if !c.dec {
			draws = e.rngs[i].src.k
		}
		c.Uvarint(&draws)
		if c.dec && c.err == nil {
			e.newNodeRand(i, draws)
		}
	}
	mb := &e.hot[i].mailbox
	nmail := len(*mb)
	c.count(&nmail)
	if c.dec && nmail > 0 && c.err == nil {
		*mb = make([]Inbound, nmail)
	}
	for k := range *mb {
		in := &(*mb)[k]
		SnapUint(c, &in.Port, e.g.Degree(i)-1)
		SnapUint(c, &in.From, e.n-1)
		c.Msg(&in.Msg)
	}
	var kind uint16
	var state []byte
	if !c.dec {
		sp := e.hot[i].prog.(Snapshottable)
		*sub = Snap{buf: sub.buf[:0]}
		sp.WalkState(sub)
		if sub.err != nil && c.err == nil {
			c.err = fmt.Errorf("node %d (%T): %w", i, sp, sub.err)
		}
		kind, state = sp.SnapshotKind(), sub.Data()
	}
	SnapUint(c, &kind, math.MaxUint16)
	c.Bytes(&state)
	if !c.dec || c.err != nil {
		return
	}
	r := NewSnapReader(state)
	prog, err := restore(i, kind, r)
	switch {
	case err != nil:
		c.err = fmt.Errorf("congest: restore node %d (kind %d): %w", i, kind, err)
	case r.err != nil:
		c.err = fmt.Errorf("node %d: %w", i, r.err)
	case r.Remaining() != 0:
		c.fail("node %d program state has %d trailing bytes", i, r.Remaining())
	}
	e.hot[i].prog = prog
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
	c := &Snap{buf: make([]byte, 0, 256+32*e.n)}
	c.buf = append(c.buf, snapshotMagic...)
	version := uint64(snapshotVersion)
	c.Uvarint(&version)
	h := snapHeader{
		n: e.n, m: e.g.M(), seed: e.seed, bitBound: e.bitBound, maxRounds: e.maxRounds,
		stopOnRej: e.stopOnRej, round: e.round, barriers: e.barriers, alive: e.alive,
		rejected: e.rejected, messages: e.m.Messages, totalBits: e.m.TotalBits,
		maxMsgBits: e.m.MaxMessageBits, droppedToDone: e.m.DroppedToDone,
	}
	h.walk(c)
	e.walkBody(c, nil)
	if c.err != nil {
		return nil, c.err
	}
	sum := sha256.Sum256(c.Data())
	return append(c.Data(), sum[:]...), nil
}

// openSnapshot validates magic, version, and the SHA-256 footer, and
// walks the run header.
func openSnapshot(data []byte) (*Snap, snapHeader, error) {
	var h snapHeader
	if len(data) < len(snapshotMagic)+1+snapshotFooterLen {
		return nil, h, fmt.Errorf("%w: %d bytes is too short", ErrBadSnapshot, len(data))
	}
	if string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, h, fmt.Errorf("%w: bad magic %q", ErrBadSnapshot, data[:len(snapshotMagic)])
	}
	body := data[:len(data)-snapshotFooterLen]
	sum := sha256.Sum256(body)
	if string(sum[:]) != string(data[len(body):]) {
		return nil, h, fmt.Errorf("%w: integrity footer mismatch", ErrBadSnapshot)
	}
	c := &Snap{buf: body, off: len(snapshotMagic), dec: true}
	var v uint64
	if c.Uvarint(&v); v != snapshotVersion || c.err != nil {
		return nil, h, fmt.Errorf("%w: unsupported version %d", ErrBadSnapshot, v)
	}
	h.walk(c)
	return c, h, c.err
}

// InspectSnapshot validates a snapshot's framing (magic, version,
// SHA-256 footer) and returns its header without restoring anything.
// Corrupt or truncated data fails with ErrBadSnapshot.
func InspectSnapshot(data []byte) (SnapshotInfo, error) {
	_, h, err := openSnapshot(data)
	if err != nil {
		return SnapshotInfo{}, err
	}
	return SnapshotInfo{Version: snapshotVersion, N: h.n, M: h.m, Seed: h.seed,
		Round: h.round, Barriers: h.barriers}, nil
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
	c, h, err := openSnapshot(data)
	if err != nil {
		return nil, err
	}
	g := cfg.Graph
	if g == nil {
		return nil, errors.New("congest: ResumeStep needs cfg.Graph")
	}
	n := h.n
	if n != g.N() || h.m != g.M() {
		return nil, fmt.Errorf("%w: snapshot is for an n=%d m=%d graph, got n=%d m=%d",
			ErrBadSnapshot, n, h.m, g.N(), g.M())
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	eng := &engine{
		g:            g,
		revPort:      g.RevPorts(),
		n:            n,
		seed:         h.seed,
		phase:        make([]nodePhase, n),
		deadline:     make([]int64, n),
		heapDl:       make([]int64, n),
		cal:          newCalendar(),
		hot:          make([]nodeHot, n),
		outbox:       make([][]outMsg, n),
		rejFlag:      make([]bool, n),
		modeled:      make([]int64, n),
		charged:      make([]charge, n),
		opened:       make([]uint8, n),
		opKind:       make([]uint8, n),
		rngs:         make([]*nodeRand, n),
		apis:         make([]StepAPI, n),
		verdicts:     make([]Verdict, n),
		ids:          make([]int64, n),
		bitBound:     h.bitBound,
		maxRounds:    h.maxRounds,
		stopOnRej:    h.stopOnRej,
		round:        h.round,
		barriers:     h.barriers,
		alive:        h.alive,
		rejected:     h.rejected,
		workers:      workers,
		cancel:       cfg.Cancel,
		ckpt:         cfg.Checkpoint,
		wallDeadline: cfg.Deadline,
	}
	eng.m.BitBound = eng.bitBound
	eng.m.Messages = h.messages
	eng.m.TotalBits = h.totalBits
	eng.m.MaxMessageBits = h.maxMsgBits
	eng.m.DroppedToDone = h.droppedToDone
	eng.initObs(cfg)
	eng.walkBody(c, restore)
	if c.err != nil {
		return nil, c.err
	}
	if c.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, c.Remaining())
	}
	sentWords := 0
	for i := 0; i < n; i++ {
		sentWords += (g.Degree(i) + 63) / 64
	}
	eng.sentBits = make([]uint64, sentWords)
	off := int32(0)
	alive := 0
	for i := 0; i < n; i++ {
		deg := g.Degree(i)
		eng.apis[i] = StepAPI{eng: eng, node: int32(i), degree: int32(deg), sentOff: off, id: eng.ids[i]}
		off += int32((deg + 63) / 64)
		if eng.phase[i] == phaseWaiting {
			alive++
		}
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
