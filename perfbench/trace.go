package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one request or tester instance
// share Unit; Parent is the enclosing span (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Unit   int    `json:"unit"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Bytes and N are the counts measured at the same boundary (input
	// bytes decoded, graph nodes), 0 where they do not apply.
	Bytes int64 `json:"bytes,omitempty"`
	N     int   `json:"n,omitempty"`
}

// tracer keeps spans in memory; write dumps them once the run is over.
// It is used by one goroutine at a time. A nil *tracer records nothing,
// so untraced code paths can share the traced ones.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, unit int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Unit: unit, Name: name,
		Start: int64(time.Since(t.t0)), End: -1})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// spanN and spanBytes attach counts to span id.
func (t *tracer) spanN(id, n int) {
	if t != nil {
		t.spans[id].N = n
	}
}

func (t *tracer) spanBytes(id int, b int64) {
	if t != nil {
		t.spans[id].Bytes = b
	}
}

// add records an already-measured child interval ending now (used for
// the engine time a job reports about itself).
func (t *tracer) add(name string, parent, unit int, d time.Duration) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Unit: unit, Name: name,
		Start: now - int64(d), End: now})
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part its direct children cover (children of one
// span never overlap, the replay being sequential).
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start)
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSpans dumps tr under the work directory and reports the file and
// the self-time table on standard error.
func writeSpans(cfg config, tr *tracer) {
	path := fmt.Sprintf("%s/spans-%s-%d.jsonl", cfg.workdir, cfg.workload, cfg.seed)
	if err := tr.write(path); err != nil {
		logf("writing spans: %v", err)
		return
	}
	logf("%d spans written to %s; self time by span:", len(tr.spans), path)
	self := tr.selfTimes()
	for _, name := range slices.Sorted(maps.Keys(self)) {
		logf("  %-32s %10.3f ms", name, ms(self[name]))
	}
}

// memWindow measures the heap cost of one code section: bytes and
// objects allocated (exact, from the runtime's cumulative counters) and
// the peak live heap above the live set it started from, sampled every
// millisecond without stopping the world.
type memWindow struct {
	allocBytes, allocs uint64
	peakHeap, baseHeap uint64

	stop chan struct{}
	wg   sync.WaitGroup
}

var heapSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/memory/classes/heap/objects:bytes"},
}

func readHeap() (allocBytes, allocs, live uint64) {
	s := make([]metrics.Sample, len(heapSamples))
	copy(s, heapSamples)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

// startMem collects garbage, handing freed memory back to the OS (so the
// peak starts from the live set), and starts sampling.
func startMem() *memWindow {
	debug.FreeOSMemory()
	w := &memWindow{stop: make(chan struct{})}
	w.allocBytes, w.allocs, w.baseHeap = readHeap()
	w.peakHeap = w.baseHeap
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				_, _, live := readHeap()
				w.peakHeap = max(w.peakHeap, live) // read by finish after wg.Wait
			}
		}
	}()
	return w
}

// finish stops sampling and turns the counters into deltas.
func (w *memWindow) finish() {
	close(w.stop)
	w.wg.Wait()
	ab, a, live := readHeap()
	w.allocBytes, w.allocs = ab-w.allocBytes, a-w.allocs
	w.peakHeap = max(w.peakHeap, live) - w.baseHeap
}
