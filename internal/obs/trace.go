package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event is one JSONL trace record. Every event carries its kind and the
// wall-clock offset since the trace started; the remaining fields are
// populated per kind and omitted when zero. The engine emits:
//
//	run_start    n, m, seed, workers
//	phase_enter  phase, round, barrier
//	phase_exit   phase, round, barrier, wall_ns, wakes, barriers,
//	             messages, bits, windows   (the closed segment's deltas)
//	fast_forward phase, round, barrier, windows, messages, bits
//	             (charged traffic folded at this barrier)
//	checkpoint   round, barrier, bytes     (snapshot handed to the sink)
//	merge        round, barrier, phase, merge ("sharded"|"sequential"),
//	             shards, messages, compute_ns, merge_ns, serial_ns
//	             (one pooled barrier: merge choice and wall split)
//	abort        err, round                (canceled/deadline/fault/panic)
//	run_end      round, barriers, messages, bits, wall_ns  (run totals)
type Event struct {
	// Event is the record kind (see the type comment for the schema).
	Event string `json:"event"`
	// AtNs is nanoseconds since the trace started; the Tracer stamps it
	// at Emit time.
	AtNs int64 `json:"at_ns"`
	// Round is the CONGEST round number of the event.
	Round int64 `json:"round,omitempty"`
	// Barrier is the executed-barrier count at the event.
	Barrier int64 `json:"barrier,omitempty"`
	// Phase is the interned phase name the event concerns.
	Phase string `json:"phase,omitempty"`
	// WallNs is the wall-clock span the event accounts for.
	WallNs int64 `json:"wall_ns,omitempty"`
	// Wakes is the node-wake count of a closed phase segment.
	Wakes int64 `json:"wakes,omitempty"`
	// Barriers is the barrier count of a closed segment or of the run.
	Barriers int64 `json:"barriers,omitempty"`
	// Messages is the delivered-plus-charged message count.
	Messages int64 `json:"messages,omitempty"`
	// Bits is the delivered-plus-charged bit count.
	Bits int64 `json:"bits,omitempty"`
	// Windows is the fast-forward-window count.
	Windows int64 `json:"windows,omitempty"`
	// Bytes is the encoded size of a checkpoint.
	Bytes int64 `json:"bytes,omitempty"`
	// Merge is the parallel-barrier merge decision: "sharded" or
	// "sequential".
	Merge string `json:"merge,omitempty"`
	// Shards is the number of merge shards of a sharded merge.
	Shards int64 `json:"shards,omitempty"`
	// ComputeNs is a pooled barrier's compute-phase wall: dispatch to
	// join of the workers stepping its due list.
	ComputeNs int64 `json:"compute_ns,omitempty"`
	// MergeNs is a pooled barrier's parallel merge wall (sharded
	// routing, dispatch to join; 0 for a sequential merge).
	MergeNs int64 `json:"merge_ns,omitempty"`
	// SerialNs is the engine loop's own wall since the previous pooled
	// barrier ended: merge tails, parking flushes, wake collection, and
	// single-worker barriers.
	SerialNs int64 `json:"serial_ns,omitempty"`
	// Err is the abort reason of an abort event.
	Err string `json:"err,omitempty"`
	// N is the node count (run_start).
	N int64 `json:"n,omitempty"`
	// M is the edge count (run_start).
	M int64 `json:"m,omitempty"`
	// Seed is the run seed (run_start).
	Seed int64 `json:"seed,omitempty"`
	// Workers is the engine worker count (run_start).
	Workers int64 `json:"workers,omitempty"`
}

// TraceSink receives engine trace events. Implementations must tolerate
// being called from the engine loop only (no concurrent Emits per run);
// the JSONL Tracer locks anyway so one sink can serve tests that share
// it across runs.
type TraceSink interface {
	// Emit records one event.
	Emit(ev Event)
}

// Tracer is the JSONL TraceSink: one JSON object per line, flushed on
// Close. Events are stamped with nanoseconds since NewTracer.
type Tracer struct {
	mu    sync.Mutex
	w     *bufio.Writer
	c     io.Closer
	start time.Time
	err   error
}

// NewTracer returns a Tracer writing JSONL to w. When w is an
// io.Closer, Close closes it after flushing.
func NewTracer(w io.Writer) *Tracer {
	t := &Tracer{w: bufio.NewWriterSize(w, 1<<16), start: time.Now()}
	if c, ok := w.(io.Closer); ok {
		t.c = c
	}
	return t
}

// Emit implements TraceSink: it stamps ev.AtNs and appends one JSON
// line. Encoding errors are sticky and reported by Close.
func (t *Tracer) Emit(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	ev.AtNs = time.Since(t.start).Nanoseconds()
	b, err := json.Marshal(ev)
	if err != nil {
		t.err = err
		return
	}
	b = append(b, '\n')
	if _, err := t.w.Write(b); err != nil {
		t.err = err
	}
}

// Close flushes buffered events (and closes the underlying writer when
// it is an io.Closer), returning the first error seen.
func (t *Tracer) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	if t.c != nil {
		if err := t.c.Close(); err != nil && t.err == nil {
			t.err = err
		}
	}
	return t.err
}
