package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/partition"
	"repro/internal/service"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 3

// testerInstance is one input of a tester workload with its construction
// truth: planar inputs must be accepted, certified-far ones rejected.
type testerInstance struct {
	name      string
	g         *graph.Graph
	eps       float64
	far       bool
	certified int // certified distance lower bound of a far input
}

// options is the BenchmarkLargeN configuration: practical Stage I
// schedule, two engine workers.
func (in testerInstance) options(probe *obs.Probe) core.Options {
	return core.Options{
		Epsilon:   in.eps,
		Partition: in.partition(),
		Workers:   2,
		Probe:     probe,
	}
}

func (in testerInstance) partition() partition.Options {
	return partition.Options{Epsilon: in.eps, Schedule: partition.PracticalSchedule}
}

// testerInstances generates the workload's inputs from seed.
//
//   - tester-planar: one connected random planar graph, n=5e4, m=7.5e4,
//     at eps=0.5. The accept path runs every tester layer to completion.
//   - tester-far: a maximal planar graph on 3e4 nodes plus 3e3 random
//     edges at eps=0.02 (rejects in Stage I's last phase), and G(n, 8/n)
//     on 4e4 nodes at eps=0.2 (rejects in stage2/partctx). Both are
//     Euler-certified eps-far.
func testerInstances(workload string, seed int64) ([]testerInstance, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []testerInstance
	switch workload {
	case "tester-planar":
		out = append(out, testerInstance{name: "planar", g: graph.RandomPlanar(50_000, 75_000, rng), eps: 0.5})
	case "tester-far":
		noise, d := planarPlusNoise(30_000, 3_000, rng)
		out = append(out, testerInstance{name: "noise", g: noise, eps: 0.02, far: true, certified: d})
		gnp := graph.GNP(40_000, 8.0/40_000, rng)
		out = append(out, testerInstance{name: "gnp", g: gnp, eps: 0.2, far: true,
			certified: graph.EulerDistanceLowerBound(gnp)})
	default:
		return nil, fmt.Errorf("no tester instances for %q", workload)
	}
	for _, in := range out {
		if in.far && float64(in.certified) <= in.eps*float64(in.g.M()) {
			return nil, fmt.Errorf("%s: certified distance %d is not above eps*m = %.0f",
				in.name, in.certified, in.eps*float64(in.g.M()))
		}
		in.g.RevPorts() // the graph's lazily built port table, shared by every run on it
	}
	return out, nil
}

// checkTester returns a complaint when a tester run erred, contradicts
// its input's construction truth, or broke the CONGEST bit bound.
func checkTester(in testerInstance, res *core.RunResult, err error) string {
	switch {
	case err != nil:
		return fmt.Sprintf("%s: RunTester: %v", in.name, err)
	case res.Rejected && !in.far:
		return fmt.Sprintf("%s: planar input rejected", in.name)
	case !res.Rejected && in.far:
		return fmt.Sprintf("%s: certified %d-far input (m=%d) accepted at eps=%v", in.name, in.certified, in.g.M(), in.eps)
	case res.Metrics.MaxMessageBits > res.Metrics.BitBound:
		return fmt.Sprintf("%s: message of %d bits exceeds the bound %d", in.name, res.Metrics.MaxMessageBits, res.Metrics.BitBound)
	}
	return ""
}

// runTester runs a tester workload. One request is one pass over the
// workload's instances; the window closes at the first pass boundary
// past --seconds.
func runTester(cfg config, rep *report) error {
	var insts []testerInstance
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		insts = nil
		runtime.GC()
		start := time.Now()
		var err error
		if insts, err = testerInstances(cfg.workload, cfg.seed); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if cfg.traced {
		return traceTester(cfg, rep, insts)
	}

	nodes := 0
	for _, in := range insts {
		nodes += in.g.N()
	}
	first := make([]*core.RunResult, len(insts))
	var lat []float64
	total := time.Duration(0)
	for total < cfg.window {
		// Each pass starts from a collected heap handed back to the OS,
		// like a fresh process, so peak_rss_mb is the peak of one pass and
		// not of the allocator's history.
		debug.FreeOSMemory()
		start := time.Now()
		for i, in := range insts {
			res, err := core.RunTester(in.g, in.options(nil), cfg.seed)
			rep.op(checkTester(in, res, err))
			if err != nil {
				continue
			}
			if first[i] == nil {
				first[i] = res
			} else if !sameRun(res, first[i]) {
				rep.problem("%s: repeated RunTester with the same seed differs: %+v vs %+v", in.name, res.Metrics, first[i].Metrics)
			}
		}
		d := time.Since(start)
		total += d
		lat = append(lat, ms(d))
		logf("pass %d: %.0f ms", len(lat), ms(d))
	}
	passes := float64(len(lat))
	rep.set("setup_s", median(setups), "s")
	rep.set("nodes_per_s", passes*float64(nodes)/total.Seconds(), "nodes/s")
	rep.set("req_per_s", passes/total.Seconds(), "1/s")
	rep.set("latency_p50_ms", quantile(lat, 0.5), "ms")
	rep.set("latency_p99_ms", quantile(lat, 0.99), "ms")
	rep.set("peak_rss_mb", peakRSSMiB(), "MiB")
	return nil
}

// sameRun reports whether two runs agree on the verdict and every count.
func sameRun(a, b *core.RunResult) bool {
	return a.Metrics == b.Metrics && a.Rejected == b.Rejected && a.RejectedBy == b.RejectedBy
}

// traceTester is the traced run of a tester workload. Per instance it
// times three RunTester calls, plain, under an obs.Probe, and plain
// again, so the probe's cost is taken against the mean of the plain
// calls on either side and no sampler runs during any of them. A fourth,
// plain call runs under heap accounting. Then come a standalone
// partition.CollectStageI, the exact oracle, and the graphio decoders
// and request hash on the same graph. Every tester call starts from a
// heap handed back to the OS, like the end-to-end passes, and must
// reproduce every count of the first.
func traceTester(cfg config, rep *report, insts []testerInstance) error {
	tr := newTracer()
	var (
		lt                   layerTotals
		plainWall, probeWall time.Duration
		collect              time.Duration
		heap                 heapTotals
		or                   oracleTotals
		dec                  decodeTotals
		hashMs               []float64
	)
	for u, in := range insts {
		root := tr.begin("instance/"+in.name, -1, u)
		tr.spanN(root, in.g.N())

		run := func(name string, probe *obs.Probe) (*core.RunResult, time.Duration, bool) {
			debug.FreeOSMemory()
			s := tr.begin(name, root, u)
			res, err := core.RunTester(in.g, in.options(probe), cfg.seed)
			d := tr.end(s)
			rep.op(checkTester(in, res, err))
			return res, d, err == nil
		}
		plain, d1, ok1 := run("core.RunTester", nil)
		traced, dp, ok2 := run("core.RunTester+probe", obs.NewProbe())
		again, d2, ok3 := run("core.RunTester", nil)
		if !ok1 || !ok2 || !ok3 {
			continue
		}
		d := (d1 + d2) / 2
		plainWall += d
		probeWall += dp

		mw := startMem()
		s := tr.begin("core.RunTester+heap", root, u)
		counted, err := core.RunTester(in.g, in.options(nil), cfg.seed)
		tr.end(s)
		mw.finish()
		rep.op(checkTester(in, counted, err))
		if err != nil {
			continue
		}
		heap.add(mw, in.g.N())
		if !sameRun(again, plain) || !sameRun(counted, plain) {
			rep.problem("%s: repeated RunTester with the same seed differs", in.name)
		}
		// Zero interference (DESIGN.md §12): a probe changes no result
		// field, and its phase table sums to the run's totals.
		if !sameRun(traced, plain) {
			rep.problem("%s: probed run differs from the plain run: %+v vs %+v", in.name, traced.Metrics, plain.Metrics)
		}
		if t := traced.Phases.Total(); t.Messages != traced.Metrics.Messages || t.Bits != traced.Metrics.TotalBits {
			rep.problem("%s: phase table sums to %d msgs/%d bits, run has %d/%d",
				in.name, t.Messages, t.Bits, traced.Metrics.Messages, traced.Metrics.TotalBits)
		}
		lt.add(int64(traced.Metrics.Rounds), traced.Metrics.Messages, traced.Metrics.TotalBits,
			traced.Metrics.MaxMessageBits, traced.Phases)
		var s1 int64
		for _, p := range traced.Phases {
			if strings.HasPrefix(p.Name, "stage1/") {
				s1 += p.Bits
			}
		}

		s = tr.begin("partition.CollectStageI", root, u)
		_, _, sres, err := partition.CollectStageI(in.g, in.partition(), cfg.seed)
		collect += tr.end(s)
		switch {
		case err != nil:
			rep.op(fmt.Sprintf("%s: CollectStageI: %v", in.name, err))
		case !in.far && s1 != sres.Metrics.TotalBits:
			// On the accept path every node finishes Stage I, so the bits
			// the probe attributes to it must be exactly what Stage I
			// sends on its own.
			rep.op(fmt.Sprintf("%s: probe attributes %d bits to Stage I, CollectStageI sends %d",
				in.name, s1, sres.Metrics.TotalBits))
		default:
			rep.op("")
		}

		res := or.decide(tr, root, u, in.g)
		rep.op(oracleComplaint(in.name, res.Planar, !in.far))
		or.congest += d

		for _, f := range graphio.Formats() {
			rep.op(dec.measure(tr, root, u, in.g, f))
		}
		req := &service.Request{Property: service.PropPlanarity, Epsilon: in.eps, Seed: cfg.seed, Graph: in.g}
		if err := req.Validate(); err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			s = tr.begin("service.CacheKey", root, u)
			req.CacheKey()
			hashMs = append(hashMs, ms(tr.end(s)))
		}
		tr.end(root)
	}
	writeSpans(cfg, tr)

	lt.report(rep)
	rep.set("partition.collect_s", collect.Seconds(), "s")
	heap.report(rep)
	dec.report(rep)
	rep.set("graphio.hash_ms_p50", median(hashMs), "ms")
	or.report(rep)
	reportServiceUnused(rep)
	rep.set("trace.overhead_ratio", probeWall.Seconds()/plainWall.Seconds()-1, "ratio")
	return nil
}

// oracleComplaint checks an exact verdict against the construction truth.
func oracleComplaint(name string, got, want bool) string {
	if got != want {
		return fmt.Sprintf("%s: oracle says planar=%v, construction says %v", name, got, want)
	}
	return ""
}

// decodeTotals accumulates graphio decode throughput per wire format.
type decodeTotals struct {
	bytes map[graphio.Format]int64
	secs  map[graphio.Format]float64
}

// measure encodes g in format f, decodes it three times (the median
// counts), and checks the decoded graph hashes like the original.
func (d *decodeTotals) measure(tr *tracer, parent, unit int, g *graph.Graph, f graphio.Format) string {
	var buf bytes.Buffer
	if err := graphio.Write(&buf, g, f); err != nil {
		return fmt.Sprintf("graphio.Write %s: %v", f, err)
	}
	var times []float64
	var got *graph.Graph
	for i := 0; i < 3; i++ {
		s := tr.begin("graphio.Read", parent, unit)
		tr.spanBytes(s, int64(buf.Len()))
		var err error
		got, err = graphio.Read(bytes.NewReader(buf.Bytes()), f)
		times = append(times, tr.end(s).Seconds())
		if err != nil {
			return fmt.Sprintf("graphio.Read %s: %v", f, err)
		}
	}
	if graphio.Hash(got) != graphio.Hash(g) {
		return fmt.Sprintf("graphio %s round trip changed the graph", f)
	}
	d.add(f, int64(buf.Len()), median(times))
	return ""
}

func (d *decodeTotals) add(f graphio.Format, n int64, secs float64) {
	if d.bytes == nil {
		d.bytes, d.secs = make(map[graphio.Format]int64), make(map[graphio.Format]float64)
	}
	d.bytes[f] += n
	d.secs[f] += secs
}

func (d *decodeTotals) report(rep *report) {
	for _, f := range graphio.Formats() {
		v := 0.0
		if d.secs[f] > 0 {
			v = float64(d.bytes[f]) / 1e6 / d.secs[f]
		}
		rep.set("graphio.decode_mb_per_s."+f.String(), v, "MB/s")
	}
}

// oracleTotals accumulates exact-oracle timings: Decide (median of
// three per graph), its biconnected-component pass, and the CONGEST
// tester wall time on the same graphs.
type oracleTotals struct {
	decideMs         []float64
	decomposed, bicc time.Duration // Decide and bicc time on graphs Decide decomposed
	decideSum        time.Duration
	congest          time.Duration
}

func (o *oracleTotals) decide(tr *tracer, parent, unit int, g *graph.Graph) oracle.Result {
	var res oracle.Result
	var times []float64
	for i := 0; i < 3; i++ {
		s := tr.begin("oracle.Decide", parent, unit)
		res = oracle.Decide(g)
		times = append(times, tr.end(s).Seconds())
	}
	d := time.Duration(median(times) * 1e9)
	o.decideMs = append(o.decideMs, ms(d))
	o.decideSum += d
	if !res.EulerRejected && g.N() >= 5 && g.M() > 0 {
		s := tr.begin("oracle.BiconnectedComponents", parent, unit)
		oracle.BiconnectedComponents(g)
		o.bicc += tr.end(s)
		o.decomposed += d
	}
	return res
}

func (o *oracleTotals) report(rep *report) {
	rep.set("oracle.decide_ms_p50", median(o.decideMs), "ms")
	share := 0.0
	if o.decomposed > 0 {
		share = o.bicc.Seconds() / o.decomposed.Seconds()
	}
	rep.set("oracle.bicc_share", share, "ratio")
	speedup := 0.0
	if o.congest > 0 && o.decideSum > 0 {
		speedup = o.congest.Seconds() / o.decideSum.Seconds()
	}
	rep.set("oracle.speedup_vs_congest", speedup, "ratio")
}

// heapTotals accumulates memWindow results over runs.
type heapTotals struct {
	allocBytes, allocs uint64
	nodes              int
	peakPerNode        float64
}

func (h *heapTotals) add(w *memWindow, n int) {
	h.allocBytes += w.allocBytes
	h.allocs += w.allocs
	h.nodes += n
	h.peakPerNode = max(h.peakPerNode, float64(w.peakHeap)/float64(n))
}

func (h *heapTotals) report(rep *report) {
	per := func(v uint64) float64 {
		if h.nodes == 0 {
			return 0
		}
		return float64(v) / float64(h.nodes)
	}
	rep.set("mem.alloc_bytes_per_node", per(h.allocBytes), "B/node")
	rep.set("mem.allocs_per_node", per(h.allocs), "allocs/node")
	rep.set("mem.peak_heap_bytes_per_node", h.peakPerNode, "B/node")
}

// layerTotals sums the engine's run metrics and per-phase attribution
// over runs.
type layerTotals struct {
	rounds, messages, bits int64
	maxMsgBits             int
	total, stage1          obs.PhaseStat
	partctx, ops           obs.PhaseStat
}

func (l *layerTotals) add(rounds, messages, bits int64, maxMsgBits int, phases obs.PhaseBreakdown) {
	l.rounds += rounds
	l.messages += messages
	l.bits += bits
	l.maxMsgBits = max(l.maxMsgBits, maxMsgBits)
	for _, p := range phases {
		addStat(&l.total, p)
		switch {
		case strings.HasPrefix(p.Name, "stage1/"):
			addStat(&l.stage1, p)
		case p.Name == "stage2/partctx":
			addStat(&l.partctx, p)
		case p.Name == "stage2/ops":
			addStat(&l.ops, p)
		}
	}
}

func addStat(s *obs.PhaseStat, o obs.PhaseStat) {
	s.WallNs += o.WallNs
	s.Wakes += o.Wakes
	s.Barriers += o.Barriers
	s.Messages += o.Messages
	s.Bits += o.Bits
	s.Windows += o.Windows
}

func nsPerWake(s obs.PhaseStat) float64 {
	if s.Wakes == 0 {
		return 0
	}
	return float64(s.WallNs) / float64(s.Wakes)
}

func (l *layerTotals) report(rep *report) {
	rep.set("congest.rounds", float64(l.rounds), "count")
	rep.set("congest.messages", float64(l.messages), "count")
	rep.set("congest.bits", float64(l.bits), "bits")
	rep.set("congest.max_msg_bits", float64(l.maxMsgBits), "bits")
	rep.set("congest.wakes", float64(l.total.Wakes), "count")
	rep.set("congest.barriers", float64(l.total.Barriers), "count")
	rep.set("congest.ns_per_wake", nsPerWake(l.total), "ns")
	rep.set("partition.self_s", float64(l.stage1.WallNs)/1e9, "s")
	rep.set("partition.wakes", float64(l.stage1.Wakes), "count")
	rep.set("partition.barriers", float64(l.stage1.Barriers), "count")
	rep.set("partition.bits", float64(l.stage1.Bits), "bits")
	rep.set("partition.ff_windows", float64(l.stage1.Windows), "count")
	rep.set("partition.ns_per_wake", nsPerWake(l.stage1), "ns")
	rep.set("core.ops_self_s", float64(l.ops.WallNs)/1e9, "s")
	rep.set("core.ops_wakes", float64(l.ops.Wakes), "count")
	rep.set("core.ops_bits", float64(l.ops.Bits), "bits")
	rep.set("core.ops_ns_per_wake", nsPerWake(l.ops), "ns")
	rep.set("core.partctx_self_s", float64(l.partctx.WallNs)/1e9, "s")
	rep.set("core.partctx_wakes", float64(l.partctx.Wakes), "count")
	rep.set("core.partctx_ns_per_wake", nsPerWake(l.partctx), "ns")
}
