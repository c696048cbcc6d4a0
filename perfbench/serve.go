package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"mime/multipart"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/service"
)

// The serve-mixed workload: a planard child process, driven over
// loopback HTTP by a closed loop of `clients` clients, each sending its
// next request when the previous reply has been read. Each client plays
// its own request script, fixed per seed, built from blocks of
// `blockPattern`.
const (
	clients = 2
	// blockPattern lays out one block of a client's script: I is an
	// ingest request (mode=exact planarity, n log-uniform in 1e3..1e5),
	// C a compute request (a CONGEST-mode miss, n log-uniform in
	// 64..512), R a repeat of one of the client's earlier compute
	// requests, and J a repeat of its latest ingest request, so re-sent
	// bodies follow the size distribution of fresh ones. Half the
	// requests are repeats, the default repeat share of `planard
	// loadgen`. The 1:7 split of fresh requests between ingest and
	// compute is synthetic: no measured traffic fixes it.
	blockPattern = "ICRCRCRJCRCRCRCR"
	// scriptBlocks is the script length per client, about 2.5 times what
	// a 30 s window consumes (~100 blocks), so a much faster server still
	// measures for the whole window; running out is a failure. Building
	// the script is most of the set-up time, which every run pays three
	// times.
	scriptBlocks = 250
	// minRequests keeps the window open until p99 rests on at least ten
	// samples beyond it.
	minRequests = 1000
	// tracedBlocks is the script prefix per client the traced run plays.
	tracedBlocks = 9
)

type reqClass int

const (
	classIngest reqClass = iota
	classCompute
	classRepeat
)

var classNames = []string{"ingest", "compute", "repeat"}

// scriptReq is one scripted request with its construction truth.
type scriptReq struct {
	class reqClass
	orig  int // repeat: index of the re-sent request in the same script

	body  []byte
	ctype string

	property, variant, mode string
	eps                     float64
	seed                    int64
	n, m                    int
	far                     bool // construction truth: must be rejected
	format                  graphio.Format
	multipart               bool
	payload                 []byte // the graph bytes; kept for the traced replay only
}

// buildScript generates client c's script of `blocks` blocks. Sizes,
// wire formats, properties, variants, families, and far instances
// rotate in fixed interleaved cycles, so that every long prefix of a
// script has nearly the same mix whatever the seed, and sizes follow the
// seed-free jitter sequence within their strata; the seed draws the
// graphs, the request seeds, and which earlier compute request each R
// re-sends.
func buildScript(seed int64, c, blocks int, keepPayload bool) ([]scriptReq, error) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
	var (
		script            []scriptReq
		computes          []int
		lastIngest        int
		nIngest, nCompute int
	)
	for b := 0; b < blocks; b++ {
		for _, k := range blockPattern {
			var r scriptReq
			var err error
			switch k {
			case 'I':
				r, err = ingestRequest(nIngest, rng)
				lastIngest = len(script)
				nIngest++
			case 'C':
				r, err = computeRequest(nCompute, rng)
				computes = append(computes, len(script))
				nCompute++
			case 'R', 'J':
				orig := lastIngest
				if k == 'R' {
					orig = computes[rng.Intn(len(computes))]
				}
				r = script[orig]
				r.class, r.orig = classRepeat, orig
			}
			if err != nil {
				return nil, err
			}
			if !keepPayload {
				r.payload = nil
			}
			script = append(script, r)
		}
	}
	return script, nil
}

// ingestRequest is the j-th ingest request of a script: exact-mode
// planarity on a graph with n log-uniform in 1e3..1e5. Formats rotate
// over all four, each sent inline in a JSON body and as a multipart
// upload in turn; every run of eight consecutive requests covers the
// eight size strata, and so does every format/transport pair over 64.
// One in five inputs is non-planar (alternately Euler-dense and a
// planted K3,3 subdivision).
func ingestRequest(j int, rng *rand.Rand) (scriptReq, error) {
	r := scriptReq{class: classIngest, property: service.PropPlanarity, mode: service.ModeExact,
		format: graphio.Formats()[j%4], multipart: (j/4)%2 == 1}
	n := logUniform(1e3, 1e5, (j/8+3*(j%8))%8, 8, jitter(j))
	var g *graph.Graph
	switch {
	case j%5 == 4 && (j/5)%2 == 0:
		g, _ = planarPlusNoise(n, n/50+1, rng)
		r.far = true
	case j%5 == 4:
		g = plantedK33(n, max(6, n/50), rng)
		r.far = true
	default:
		switch (j + j/4) % 4 {
		case 0:
			g = graph.MaximalPlanar(n, rng)
		case 1:
			g = thinPlanar(n, 0.75, rng)
		case 2:
			g = graph.Outerplanar(n, rng)
		default:
			g = thinPlanar(n, 0.45, rng)
		}
	}
	return r, r.encode(g)
}

// computeRequest is the j-th compute request of a script: a CONGEST-mode
// run on a graph with n log-uniform in 64..512. Properties cycle over
// all five, each meeting every size stratum within 50 requests, and
// Stage I variants alternate; three slots in twenty are certified-far
// instances (the spanner has no far side), tested at half their
// certified distance.
func computeRequest(j int, rng *rand.Rand) (scriptReq, error) {
	props := service.Properties()
	r := scriptReq{class: classCompute, property: props[j%5], variant: service.VariantDeterministic,
		mode: service.ModeCongest, eps: 0.25, seed: rng.Int63n(1 << 40), format: graphio.Formats()[j%4]}
	if (j/5+j/50)%2 == 1 {
		r.variant = service.VariantRandomized
	}
	n := logUniform(64, 512, (j/5)%10, 10, jitter(j))
	switch j % 20 {
	case 0:
		r.far = (j/20)%2 == 0
	case 1:
		r.far = (j/20)%2 == 1
	case 7, 13:
		r.far = true
	}
	var g *graph.Graph
	var dist int
	switch {
	case r.far && r.property == service.PropPlanarity:
		g, dist = planarPlusNoise(n, n, rng)
	case r.far:
		// A maximal planar graph is far from all three: a forest keeps
		// n-1 of its 3n-6 edges, an outerplanar graph 2n-3, and each of
		// its 2n-4 triangular faces needs an edge removed for
		// bipartiteness, each removal serving at most two faces.
		g = graph.MaximalPlanar(n, rng)
		switch r.property {
		case service.PropCycleFree:
			dist = g.M() - (n - 1)
		case service.PropBipartiteness:
			dist = n - 2
		default:
			dist = g.M() - (2*n - 3)
		}
	case r.property == service.PropCycleFree:
		g = graph.RandomTree(n, rng)
	case r.property == service.PropBipartiteness:
		rows := 2 + rng.Intn(8)
		g = graph.Grid(rows, (n+rows-1)/rows)
	case r.property == service.PropOuterplanar:
		g = graph.Outerplanar(n, rng)
	default:
		g = graph.RandomPlanar(n, 2*n, rng)
	}
	if r.far {
		r.eps = float64(dist) / float64(g.M()) / 2
	}
	return r, r.encode(g)
}

// encode serializes g in r.format and wraps it in the request body.
func (r *scriptReq) encode(g *graph.Graph) error {
	r.n, r.m = g.N(), g.M()
	var buf bytes.Buffer
	if err := graphio.Write(&buf, g, r.format); err != nil {
		return err
	}
	r.payload = buf.Bytes()
	fields := map[string]any{"property": r.property, "mode": r.mode}
	if r.mode == service.ModeCongest {
		fields["epsilon"], fields["seed"], fields["variant"] = r.eps, r.seed, r.variant
	}
	if !r.multipart {
		gobj := map[string]string{"format": r.format.String()}
		if r.format == graphio.Binary {
			gobj["data_base64"] = base64.StdEncoding.EncodeToString(r.payload)
		} else {
			gobj["data"] = string(r.payload)
		}
		fields["graph"] = gobj
		body, err := json.Marshal(fields)
		r.body, r.ctype = body, "application/json"
		return err
	}
	opts, err := json.Marshal(fields)
	if err != nil {
		return err
	}
	var mp bytes.Buffer
	w := multipart.NewWriter(&mp)
	w.WriteField("request", string(opts))
	w.WriteField("format", r.format.String()) // must precede the graph part
	part, err := w.CreateFormFile("graph", "graph")
	if err != nil {
		return err
	}
	part.Write(r.payload)
	if err := w.Close(); err != nil {
		return err
	}
	r.body, r.ctype = mp.Bytes(), w.FormDataContentType()
	return nil
}

// buildScripts builds every client's script, one goroutine per client.
func buildScripts(seed int64, blocks int, keepPayload bool) ([][]scriptReq, error) {
	scripts := make([][]scriptReq, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			scripts[c], errs[c] = buildScript(seed, c, blocks, keepPayload)
		}(c)
	}
	wg.Wait()
	return scripts, errors.Join(errs...)
}

// server is a planard child process.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once the process has been waited for
	err  error
}

// startServer starts planard with one engine worker per job and a fresh
// disk cache tier under dir, and returns once /readyz answers 200.
func startServer(bin, dir string) (*server, error) {
	if bin == "" {
		return nil, errors.New("no planard binary given (--planard)")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(filepath.Join(dir, "planard.log"))
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	s := &server{base: "http://127.0.0.1:" + port, done: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", "127.0.0.1:"+port, "-engine-workers", "1",
		"-cache-dir", filepath.Join(dir, "cache"))
	s.cmd.Stdout, s.cmd.Stderr = logFile, logFile
	// Should the benchmark die without stopping it, the kernel kills the
	// server too.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting planard: %w", err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.done)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("planard exited during start-up (%v); log in %s", s.err, dir)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("planard not ready after 60s")
		}
	}
}

// stop shuts planard down gracefully (SIGTERM, then SIGKILL after 30s),
// waits for it, and returns its peak resident set size in MiB.
func (s *server) stop() float64 {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return strconv.Itoa(l.Addr().(*net.TCPAddr).Port), nil
}

// reply is the client-side record of one HTTP request.
type reply struct {
	req  *scriptReq
	lat  time.Duration
	view *service.View
}

// post sends r and reads the whole reply; latency runs from the send
// until the last body byte has been read.
func post(client *http.Client, base string, r *scriptReq) (reply, error) {
	start := time.Now()
	resp, err := client.Post(base+"/v1/test", r.ctype, bytes.NewReader(r.body))
	if err != nil {
		return reply{req: r}, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := reply{req: r, lat: time.Since(start)}
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("status %d: %.200s", resp.StatusCode, raw)
	}
	var v service.View
	if err := json.Unmarshal(raw, &v); err != nil {
		return out, fmt.Errorf("decoding reply: %w", err)
	}
	out.view = &v
	return out, nil
}

// checkReply returns a complaint when a reply contradicts its request's
// construction truth or the cache contract: a repeat must be a hit with
// the original's outcome, any other request a miss.
func checkReply(rp reply, orig *service.Outcome) string {
	r, v := rp.req, rp.view
	if v.State != "done" || v.Outcome == nil {
		return fmt.Sprintf("%s n=%d: job %s ended %s: %s", r.property, r.n, v.ID, v.State, v.Error)
	}
	o := v.Outcome
	switch {
	case v.CacheHit != (r.class == classRepeat):
		return fmt.Sprintf("%s n=%d class %d: cache_hit=%v", r.property, r.n, r.class, v.CacheHit)
	case r.class == classRepeat && orig != nil && !sameOutcome(o, orig):
		return fmt.Sprintf("%s n=%d: cached outcome differs from the original", r.property, r.n)
	case o.GraphN != r.n || o.GraphM != r.m:
		return fmt.Sprintf("%s: server decoded n=%d m=%d, sent n=%d m=%d", r.property, o.GraphN, o.GraphM, r.n, r.m)
	case r.mode == service.ModeExact && (o.Mode != service.ModeExact || o.Oracle == nil):
		return fmt.Sprintf("exact request n=%d answered by mode %q", r.n, o.Mode)
	case o.Rejected != r.far:
		return fmt.Sprintf("%s/%s/%s n=%d eps=%.3g: rejected=%v, construction says far=%v",
			r.property, r.mode, r.variant, r.n, r.eps, o.Rejected, r.far)
	case r.property == service.PropSpanner && (o.SpannerEdges < 1 || o.SpannerEdges > r.m):
		return fmt.Sprintf("spanner n=%d: %d edges of %d", r.n, o.SpannerEdges, r.m)
	case o.Metrics.MaxMessageBits > o.Metrics.BitBound:
		return fmt.Sprintf("%s n=%d: message of %d bits exceeds the bound %d", r.property, r.n, o.Metrics.MaxMessageBits, o.Metrics.BitBound)
	}
	return ""
}

func sameOutcome(a, b *service.Outcome) bool {
	return a.Verdict == b.Verdict && a.RejectedBy == b.RejectedBy && a.Metrics == b.Metrics &&
		a.SpannerEdges == b.SpannerEdges && a.SpannerStretch == b.SpannerStretch &&
		(a.Oracle == nil) == (b.Oracle == nil) && (a.Oracle == nil || *a.Oracle == *b.Oracle)
}

// drive plays the scripts against base with one closed-loop client per
// script. Without a window each client plays its whole script; with one,
// clients stop once the window has passed and at least minRequests
// replies are in, or when any client's script runs out. It returns every
// reply in completion order per client and the wall time.
func drive(base string, scripts [][]scriptReq, window time.Duration, rep *report) ([][]reply, time.Duration) {
	out := make([][]reply, len(scripts))
	var done atomic.Int64
	var stop atomic.Bool
	start := time.Now()
	var wg sync.WaitGroup
	for c := range scripts {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			for i := range scripts[c] {
				if window > 0 && (stop.Load() || time.Since(start) >= window && done.Load() >= minRequests) {
					return
				}
				rp, err := post(client, base, &scripts[c][i])
				if err != nil {
					rp.view = nil
					logf("FAIL: request %d of client %d: %v", i, c, err)
				}
				out[c] = append(out[c], rp)
				done.Add(1)
			}
			stop.Store(true) // script exhausted: end the window for every client
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for c := range out {
		for i, rp := range out[c] {
			if rp.view == nil {
				rep.op("request failed")
				continue
			}
			var orig *service.Outcome
			if rp.req.class == classRepeat && rp.req.orig < len(out[c]) && out[c][rp.req.orig].view != nil {
				orig = out[c][rp.req.orig].view.Outcome
			}
			rep.op(checkReply(out[c][i], orig))
		}
	}
	return out, elapsed
}

// scrape reads the named counters from planard's /metrics.
func scrape(base string, names ...string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		for _, name := range names {
			if f[0] == name {
				v, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return nil, fmt.Errorf("metric %s: %w", name, err)
				}
				out[name] = v
			}
		}
	}
	for _, name := range names {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("/metrics has no %s", name)
		}
	}
	return out, nil
}

// checkCounters cross-checks the server's cache counters with the
// replies: every repeat sent was a memory-tier hit and nothing else was.
func checkCounters(base string, replies [][]reply, rep *report) map[string]float64 {
	got, err := scrape(base, "planard_cache_hits_total", "planard_cache_disk_hits_total",
		"planard_coalesced_jobs_total", "planard_shed_requests_total")
	if err != nil {
		rep.problem("scraping /metrics: %v", err)
		return nil
	}
	repeats := 0
	for _, rs := range replies {
		for _, rp := range rs {
			if rp.req.class == classRepeat {
				repeats++
			}
		}
	}
	if int(got["planard_cache_hits_total"]) != repeats || got["planard_cache_disk_hits_total"] != 0 {
		rep.problem("server counted %v cache hits (%v from disk); the script sent %d repeats",
			got["planard_cache_hits_total"], got["planard_cache_disk_hits_total"], repeats)
	}
	return got
}

// setupServe builds the scripts and starts planard setupRepeats times;
// all but the last server are stopped again. It returns the last
// server, its scripts, and the median set-up time.
func setupServe(cfg config, runDir string, blocks int) (*server, [][]scriptReq, float64, error) {
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		scripts, err := buildScripts(cfg.seed, blocks, cfg.traced)
		if err != nil {
			return nil, nil, 0, err
		}
		srv, err := startServer(cfg.planard, filepath.Join(runDir, fmt.Sprintf("server%d", i)))
		if err != nil {
			return nil, nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i == setupRepeats-1 {
			return srv, scripts, median(times), nil
		}
		srv.stop()
	}
	panic("unreachable")
}

// runServe runs the serve-mixed workload.
func runServe(cfg config, rep *report) error {
	runDir, err := os.MkdirTemp(cfg.workdir, "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	if cfg.traced {
		return traceServe(cfg, rep, runDir)
	}
	srv, scripts, setup, err := setupServe(cfg, runDir, scriptBlocks)
	if err != nil {
		return err
	}
	replies, elapsed := drive(srv.base, scripts, cfg.window, rep)
	checkCounters(srv.base, replies, rep)
	rss := srv.stop()

	var lat []float64
	byClass := make(map[reqClass][]float64)
	nodes := 0
	count := 0
	for _, rs := range replies {
		for _, rp := range rs {
			lat = append(lat, ms(rp.lat))
			byClass[rp.req.class] = append(byClass[rp.req.class], ms(rp.lat))
			nodes += rp.req.n
			count++
		}
	}
	for c, name := range classNames {
		xs := byClass[reqClass(c)]
		logf("%-8s %5d requests  p10 %7.2f  p50 %7.2f  p90 %7.2f  p99 %7.2f ms", name, len(xs),
			quantile(xs, 0.1), quantile(xs, 0.5), quantile(xs, 0.9), quantile(xs, 0.99))
	}
	if count < minRequests {
		rep.problem("only %d requests completed; p99 needs %d", count, minRequests)
	}
	if elapsed < cfg.window {
		rep.problem("the script ran out after %.1fs, before the %v window closed; raise scriptBlocks",
			elapsed.Seconds(), cfg.window)
	}
	logf("%d requests in %.1fs", count, elapsed.Seconds())
	rep.set("setup_s", setup, "s")
	rep.set("nodes_per_s", float64(nodes)/elapsed.Seconds(), "nodes/s")
	rep.set("req_per_s", float64(count)/elapsed.Seconds(), "1/s")
	rep.set("latency_p50_ms", quantile(lat, 0.5), "ms")
	rep.set("latency_p99_ms", quantile(lat, 0.99), "ms")
	rep.set("peak_rss_mb", rss, "MiB")
	return nil
}

// traceServe is the traced run of serve-mixed: the first tracedBlocks
// blocks of each script go once over HTTP (for the service-side
// latencies and counters) and are then replayed in process, layer by
// layer, under spans. planard probes every planarity job whatever its
// flags, so there is no untraced program to compare the replay with:
// trace.overhead_ratio reads 0 here, and the replay must reproduce the
// outcomes planard served instead.
func traceServe(cfg config, rep *report, runDir string) error {
	srv, scripts, _, err := setupServe(cfg, runDir, tracedBlocks)
	if err != nil {
		return err
	}
	replies, _ := drive(srv.base, scripts, 0, rep)
	counters := checkCounters(srv.base, replies, rep)
	srv.stop()

	var hitMs, overheadMs []float64
	engineMs := make(map[string][]float64)
	classMs := make(map[reqClass][]float64)
	hits := 0
	for _, rs := range replies {
		for _, rp := range rs {
			if rp.view == nil || rp.view.Outcome == nil {
				continue
			}
			classMs[rp.req.class] = append(classMs[rp.req.class], ms(rp.lat))
			switch {
			case rp.view.CacheHit:
				hits++
				hitMs = append(hitMs, ms(rp.lat))
			default:
				wall := rp.view.Outcome.WallSeconds * 1000
				overheadMs = append(overheadMs, ms(rp.lat)-wall)
				if rp.req.mode == service.ModeCongest {
					engineMs[rp.req.property] = append(engineMs[rp.req.property], wall)
				}
			}
		}
	}
	rep.set("service.coalesced", counters["planard_coalesced_jobs_total"], "count")
	rep.set("service.shed", counters["planard_shed_requests_total"], "count")
	rep.set("service.hit_latency_ms_p50", median(hitMs), "ms")
	rep.set("service.overhead_ms_p50", median(overheadMs), "ms")
	for _, p := range service.Properties() {
		rep.set("service.engine_ms_p50."+p, median(engineMs[p]), "ms")
	}
	// Per-class client latency, so that a change confined to one class
	// shows even where the mix hides it in latency_p50_ms; the repeat
	// class is service.hit_latency_ms_p50.
	for c, name := range classNames[:classRepeat] {
		rep.set("service.latency_ms_p50."+name, median(classMs[reqClass(c)]), "ms")
	}

	tr := newTracer()
	res, err := replay(filepath.Join(runDir, "replay"), scripts, replies, tr, rep)
	if err != nil {
		return err
	}
	writeSpans(cfg, tr)
	if res.hits != hits {
		rep.problem("the in-process replay hit the cache %d times, HTTP %d", res.hits, hits)
	}
	res.report(rep)
	rep.set("trace.overhead_ratio", 0, "ratio")
	return nil
}

// reportServiceUnused reports the service metrics as 0 on workloads
// that do not exercise the service.
func reportServiceUnused(rep *report) {
	rep.set("service.cache_hit_ratio", 0, "ratio")
	rep.set("service.coalesced", 0, "count")
	rep.set("service.shed", 0, "count")
	rep.set("service.hit_latency_ms_p50", 0, "ms")
	rep.set("service.overhead_ms_p50", 0, "ms")
	for _, p := range service.Properties() {
		rep.set("service.engine_ms_p50."+p, 0, "ms")
	}
	for _, name := range classNames[:classRepeat] {
		rep.set("service.latency_ms_p50."+name, 0, "ms")
	}
}
