package service

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/graphio"
)

func testServer(t *testing.T) (*httptest.Server, *Manager) {
	t.Helper()
	m := New(Config{EngineWorkers: 1})
	t.Cleanup(m.Close)
	srv := httptest.NewServer(NewHandler(m, HandlerConfig{}))
	t.Cleanup(srv.Close)
	return srv, m
}

func encodeGraph(t *testing.T, g *graph.Graph, f graphio.Format) string {
	t.Helper()
	var buf bytes.Buffer
	if err := graphio.Write(&buf, g, f); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func testRequestBody(g *graph.Graph, f graphio.Format, data string, extra map[string]any) map[string]any {
	body := map[string]any{
		"property": PropPlanarity,
		"epsilon":  0.25,
		"seed":     1,
		"graph":    map[string]any{"format": f.String(), "data": data},
	}
	for k, v := range extra {
		body[k] = v
	}
	return body
}

func TestHTTPSyncTestAllFormats(t *testing.T) {
	srv, _ := testServer(t)
	g := graph.Grid(8, 8)
	var views []View
	for _, f := range graphio.Formats() {
		body := map[string]any{
			"property": PropPlanarity,
			"epsilon":  0.25,
			"seed":     1,
		}
		if f == graphio.Binary {
			body["graph"] = map[string]any{
				"format":      f.String(),
				"data_base64": base64.StdEncoding.EncodeToString([]byte(encodeGraph(t, g, f))),
			}
		} else {
			body["graph"] = map[string]any{"format": f.String(), "data": encodeGraph(t, g, f)}
		}
		resp, out := postJSON(t, srv.URL+"/v1/test", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%v: status %d: %s", f, resp.StatusCode, out)
		}
		var v View
		if err := json.Unmarshal(out, &v); err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if v.State != "done" || v.Outcome == nil || v.Outcome.Rejected {
			t.Fatalf("%v: unexpected view %s", f, out)
		}
		if v.Outcome.Metrics.Rounds <= 0 || v.Outcome.Metrics.BitBound <= 0 {
			t.Fatalf("%v: CONGEST metrics missing from %s", f, out)
		}
		views = append(views, v)
	}
	// All four wire formats address the same cache entry: one miss.
	for i, v := range views {
		if (i > 0) != v.CacheHit {
			t.Fatalf("format %d: cacheHit=%v, want %v", i, v.CacheHit, i > 0)
		}
	}
}

func TestHTTPAsyncJobLifecycle(t *testing.T) {
	srv, _ := testServer(t)
	rng := rand.New(rand.NewSource(11))
	g := graph.RandomPlanar(2000, 4000, rng)
	body := testRequestBody(g, graphio.EdgeList, encodeGraph(t, g, graphio.EdgeList), map[string]any{"async": true})
	resp, out := postJSON(t, srv.URL+"/v1/test", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async POST: status %d: %s", resp.StatusCode, out)
	}
	var v View
	if err := json.Unmarshal(out, &v); err != nil {
		t.Fatal(err)
	}
	if v.ID == "" {
		t.Fatalf("async POST returned no job id: %s", out)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/v1/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("poll: status %d: %s", r.StatusCode, out)
		}
		if err := json.Unmarshal(out, &v); err != nil {
			t.Fatal(err)
		}
		if v.State == "done" {
			break
		}
		if v.State == "failed" {
			t.Fatalf("job failed: %s", out)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", v.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v.Outcome == nil || v.Outcome.Rejected {
		t.Fatalf("bad terminal view: %+v", v)
	}
}

func TestHTTPMultipartUpload(t *testing.T) {
	srv, _ := testServer(t)
	g := graph.Grid(6, 6)

	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	if err := mw.WriteField("request", fmt.Sprintf(`{"property":%q,"epsilon":0.25,"seed":2}`, PropBipartiteness)); err != nil {
		t.Fatal(err)
	}
	fw, err := mw.CreateFormFile("graph", "grid.col")
	if err != nil {
		t.Fatal(err)
	}
	if err := graphio.Write(fw, g, graphio.DIMACS); err != nil {
		t.Fatal(err)
	}
	mw.Close()

	resp, err := http.Post(srv.URL+"/v1/test", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("multipart POST: status %d: %s", resp.StatusCode, out)
	}
	var v View
	if err := json.Unmarshal(out, &v); err != nil {
		t.Fatal(err)
	}
	if v.Property != PropBipartiteness || v.State != "done" || v.Outcome.Rejected {
		t.Fatalf("unexpected view: %s", out)
	}
}

func TestHTTPCancelJob(t *testing.T) {
	srv, _ := testServer(t)
	rng := rand.New(rand.NewSource(12))
	g := graph.MaximalPlanar(20000, rng)
	body := testRequestBody(g, graphio.EdgeList, encodeGraph(t, g, graphio.EdgeList),
		map[string]any{"async": true, "epsilon": 0.05})
	resp, out := postJSON(t, srv.URL+"/v1/test", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async POST: status %d: %s", resp.StatusCode, out)
	}
	var v View
	if err := json.Unmarshal(out, &v); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+v.ID, nil)
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: status %d", r.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/v1/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if err := json.Unmarshal(out, &v); err != nil {
			t.Fatal(err)
		}
		if v.State == "failed" {
			if !strings.Contains(v.Error, "cancel") {
				t.Fatalf("failed without cancellation error: %s", out)
			}
			break
		}
		if v.State == "done" {
			t.Skip("job finished before the cancel landed") // tiny host: not an error
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q after cancel", v.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestHTTPMetricsEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	g := graph.Grid(5, 5)
	body := testRequestBody(g, graphio.JSON, encodeGraph(t, g, graphio.JSON), nil)
	for i := 0; i < 2; i++ {
		if resp, out := postJSON(t, srv.URL+"/v1/test", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %d: %d %s", i, resp.StatusCode, out)
		}
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"planard_cache_hits_total 1",
		"planard_cache_misses_total 1",
		`planard_jobs_total{property="planarity",status="done"} 2`,
	} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, out)
		}
	}
}

func TestHTTPBadRequests(t *testing.T) {
	srv, _ := testServer(t)
	el := encodeGraph(t, graph.Grid(3, 3), graphio.EdgeList)
	cases := []struct {
		name string
		body map[string]any
	}{
		{"no graph", map[string]any{"property": PropPlanarity, "epsilon": 0.25}},
		{"bad epsilon", testRequestBody(nil, graphio.EdgeList, el, map[string]any{"epsilon": 7})},
		{"bad property", testRequestBody(nil, graphio.EdgeList, el, map[string]any{"property": "chordality"})},
		{"bad format", map[string]any{"epsilon": 0.25, "graph": map[string]any{"format": "gexf", "data": el}}},
		{"corrupt graph", map[string]any{"epsilon": 0.25, "graph": map[string]any{"format": "edge-list", "data": "0 x\n"}}},
		{"unknown field", testRequestBody(nil, graphio.EdgeList, el, map[string]any{"bogus": 1})},
		{"both datas", map[string]any{"epsilon": 0.25, "graph": map[string]any{"data": el, "data_base64": "AAAA"}}},
	}
	for _, tc := range cases {
		resp, out := postJSON(t, srv.URL+"/v1/test", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d (want 400): %s", tc.name, resp.StatusCode, out)
		}
		var e map[string]string
		if err := json.Unmarshal(out, &e); err != nil || e["error"] == "" {
			t.Fatalf("%s: error body %q", tc.name, out)
		}
	}
	if r, _ := http.Get(srv.URL + "/v1/jobs/nope"); r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", r.StatusCode)
	}
	if r, _ := http.Get(srv.URL + "/healthz"); r.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", r.StatusCode)
	}
}

// TestHTTPEndToEnd10k is the acceptance scenario: POST a 10^4-node
// random planar graph, expect an accept verdict with CONGEST metrics;
// POST it again and observe the cache hit through the counters.
func TestHTTPEndToEnd10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10^4-node end-to-end run skipped in -short mode")
	}
	srv, m := testServer(t)
	rng := rand.New(rand.NewSource(20260730))
	g := graph.RandomPlanar(10000, 20000, rng)
	body := testRequestBody(g, graphio.Binary, "", map[string]any{"graph": map[string]any{
		"format":      "binary",
		"data_base64": base64.StdEncoding.EncodeToString([]byte(encodeGraph(t, g, graphio.Binary))),
	}})
	var views [2]View
	for i := range views {
		resp, out := postJSON(t, srv.URL+"/v1/test", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %d: status %d: %s", i, resp.StatusCode, out)
		}
		if err := json.Unmarshal(out, &views[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range views {
		if v.State != "done" || v.Outcome == nil {
			t.Fatalf("POST %d: not done: %+v", i, v)
		}
		if v.Outcome.Rejected {
			t.Fatalf("POST %d: rejected a planar graph", i)
		}
		if v.Outcome.Metrics.Rounds <= 0 || v.Outcome.Metrics.Messages <= 0 {
			t.Fatalf("POST %d: missing CONGEST metrics: %+v", i, v.Outcome)
		}
	}
	if views[0].CacheHit || !views[1].CacheHit {
		t.Fatalf("cache hits: first=%v second=%v, want false/true", views[0].CacheHit, views[1].CacheHit)
	}
	if hits, misses := m.Metrics().CacheHits.Load(), m.Metrics().CacheMisses.Load(); hits != 1 || misses != 1 {
		t.Fatalf("counters: hits=%d misses=%d, want 1/1", hits, misses)
	}
}

func TestHTTPTimeoutAnswers504(t *testing.T) {
	srv, _ := testServer(t)
	g := graph.Grid(300, 300)
	data := encodeGraph(t, g, graphio.EdgeList)
	body := testRequestBody(g, graphio.EdgeList, data, map[string]any{"timeout": "1ms"})
	resp, out := postJSON(t, srv.URL+"/v1/test", body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out sync POST: status %d: %s", resp.StatusCode, out)
	}
	var v View
	if err := json.Unmarshal(out, &v); err != nil {
		t.Fatal(err)
	}
	if v.State != "failed" || !strings.Contains(v.Error, "deadline") {
		t.Fatalf("504 view: %s", out)
	}

	// A malformed timeout is a client error, not a run.
	body = testRequestBody(g, graphio.EdgeList, data, map[string]any{"timeout": "soon"})
	resp, out = postJSON(t, srv.URL+"/v1/test", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad timeout: status %d: %s", resp.StatusCode, out)
	}
}

func TestHTTPDeleteIdempotent(t *testing.T) {
	srv, _ := testServer(t)
	rng := rand.New(rand.NewSource(23))
	g := graph.MaximalPlanar(20000, rng)
	body := testRequestBody(g, graphio.EdgeList, encodeGraph(t, g, graphio.EdgeList),
		map[string]any{"async": true, "epsilon": 0.05})
	resp, out := postJSON(t, srv.URL+"/v1/test", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async POST: status %d: %s", resp.StatusCode, out)
	}
	var v View
	if err := json.Unmarshal(out, &v); err != nil {
		t.Fatal(err)
	}
	// Two DELETEs of the same job must both answer 200 and release at
	// most one attachment (the second is a no-op, not an over-release).
	for i := 0; i < 2; i++ {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+v.ID, nil)
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("DELETE %d: status %d", i, r.StatusCode)
		}
	}
}

func TestHTTPReadyz(t *testing.T) {
	srv, m := testServer(t)
	get := func() (*http.Response, string) {
		t.Helper()
		r, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(r.Body)
		r.Body.Close()
		return r, string(out)
	}
	if r, out := get(); r.StatusCode != http.StatusOK || out != "ready\n" {
		t.Fatalf("idle readyz: %d %q", r.StatusCode, out)
	}
	m.BeginDrain()
	r, out := get()
	if r.StatusCode != http.StatusServiceUnavailable || out != "draining\n" {
		t.Fatalf("draining readyz: %d %q", r.StatusCode, out)
	}
	if r.Header.Get("Retry-After") == "" {
		t.Fatal("draining readyz carries no Retry-After")
	}
}

func TestHTTPReadyzSaturated(t *testing.T) {
	m := New(Config{EngineWorkers: 1, MemoryBudget: 1 << 10})
	t.Cleanup(m.Close)
	srv := httptest.NewServer(NewHandler(m, HandlerConfig{}))
	t.Cleanup(srv.Close)

	release, err := m.AdmitBytes(1 << 10) // fill the whole budget
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable || string(out) != "overloaded\n" {
		t.Fatalf("saturated readyz: %d %q", r.StatusCode, out)
	}
	if r.Header.Get("Retry-After") == "" {
		t.Fatal("saturated readyz carries no Retry-After")
	}
	release()
	if r, _ := http.Get(srv.URL + "/readyz"); r.StatusCode != http.StatusOK {
		t.Fatalf("readyz still failing after the budget drained: %d", r.StatusCode)
	}
}

// TestHTTPMultipartStreamingOrder pins the one ordering rule the
// streaming decoder imposes: a "format" field after the "graph" part is
// rejected (the graph was already decoded as it streamed), while the
// same field before the part selects the parser.
func TestHTTPMultipartStreamingOrder(t *testing.T) {
	srv, _ := testServer(t)
	g := graph.Grid(4, 4)
	build := func(formatFirst bool) (*bytes.Buffer, string) {
		var buf bytes.Buffer
		mw := multipart.NewWriter(&buf)
		writeFormat := func() {
			if err := mw.WriteField("format", "edge-list"); err != nil {
				t.Fatal(err)
			}
		}
		if formatFirst {
			writeFormat()
		}
		// No file extension: only the format field can name the parser.
		fw, err := mw.CreateFormFile("graph", "payload")
		if err != nil {
			t.Fatal(err)
		}
		if err := graphio.Write(fw, g, graphio.EdgeList); err != nil {
			t.Fatal(err)
		}
		if !formatFirst {
			writeFormat()
		}
		if err := mw.WriteField("property", PropPlanarity); err != nil {
			t.Fatal(err)
		}
		if err := mw.WriteField("epsilon", "0.25"); err != nil {
			t.Fatal(err)
		}
		mw.Close()
		return &buf, mw.FormDataContentType()
	}

	body, ct := build(true)
	resp, err := http.Post(srv.URL+"/v1/test", ct, body)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("format-first multipart: %d %s", resp.StatusCode, out)
	}

	body, ct = build(false)
	resp, err = http.Post(srv.URL+"/v1/test", ct, body)
	if err != nil {
		t.Fatal(err)
	}
	out, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("format-after-graph multipart: %d (want 400) %s", resp.StatusCode, out)
	}
	if !strings.Contains(string(out), "precede") {
		t.Fatalf("format-after-graph error does not explain the ordering: %s", out)
	}
}

// TestHTTPRequestBodyLimit413 drives an oversized upload through the
// streaming multipart path: MaxBytesReader trips mid-part and the
// MaxBytesError must survive the graphio readers up to a 413.
func TestHTTPRequestBodyLimit413(t *testing.T) {
	m := New(Config{EngineWorkers: 1})
	t.Cleanup(m.Close)
	srv := httptest.NewServer(NewHandler(m, HandlerConfig{MaxRequestBytes: 4 << 10}))
	t.Cleanup(srv.Close)

	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	mw.WriteField("format", "edge-list")
	fw, err := mw.CreateFormFile("graph", "big.txt")
	if err != nil {
		t.Fatal(err)
	}
	if err := graphio.Write(fw, graph.Grid(40, 40), graphio.EdgeList); err != nil {
		t.Fatal(err)
	}
	mw.Close()
	if buf.Len() <= 4<<10 {
		t.Fatalf("test body too small to trip the limit: %d bytes", buf.Len())
	}
	resp, err := http.Post(srv.URL+"/v1/test", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized multipart: %d (want 413) %s", resp.StatusCode, out)
	}
}

// TestHTTPBudgetShed exercises both admission verdicts on the byte
// budget: a body that can never fit answers 413, and a budget held by
// someone else answers 503 + Retry-After.
func TestHTTPBudgetShed(t *testing.T) {
	const budget = 32 << 10
	m := New(Config{EngineWorkers: 1, MemoryBudget: budget})
	t.Cleanup(m.Close)
	srv := httptest.NewServer(NewHandler(m, HandlerConfig{}))
	t.Cleanup(srv.Close)

	g := graph.Grid(3, 3)
	body := testRequestBody(g, graphio.EdgeList, encodeGraph(t, g, graphio.EdgeList), nil)

	// Larger than the whole budget: terminal, 413, no Retry-After.
	huge := testRequestBody(g, graphio.EdgeList,
		encodeGraph(t, g, graphio.EdgeList)+strings.Repeat("# pad\n", budget/6+1), nil)
	resp, out := postJSON(t, srv.URL+"/v1/test", huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-budget body: %d (want 413) %s", resp.StatusCode, out)
	}

	// Budget held elsewhere: transient, 503 + Retry-After.
	release, err := m.AdmitBytes(budget - 16)
	if err != nil {
		t.Fatal(err)
	}
	resp, out = postJSON(t, srv.URL+"/v1/test", body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated POST: %d (want 503) %s", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 shed carries no Retry-After")
	}
	release()
	if m.Metrics().ShedRequests.Load() != 2 {
		t.Fatalf("shed counter = %d, want 2", m.Metrics().ShedRequests.Load())
	}

	// Pressure gone: the same request is served.
	resp, out = postJSON(t, srv.URL+"/v1/test", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-pressure POST: %d %s", resp.StatusCode, out)
	}
}

// TestHTTPNodeCapRefusesBeforeAllocating posts 12 bytes that name a
// 268435001-node graph under a 64 MiB budget. The reader's node cap,
// derived from the budget, must refuse it with 413 before building
// anything: the unchecked reader allocated gigabytes for this body.
func TestHTTPNodeCapRefusesBeforeAllocating(t *testing.T) {
	m := New(Config{EngineWorkers: 1, MemoryBudget: 64 << 20})
	t.Cleanup(m.Close)
	srv := httptest.NewServer(NewHandler(m, HandlerConfig{}))
	t.Cleanup(srv.Close)

	pgb := graphio.AppendUvarint([]byte("PGB1"), 268435000)
	pgb = graphio.AppendUvarint(pgb, 0)
	for _, tc := range []struct{ format, key, data string }{
		{"edge-list", "data", "268435000 0\n"},
		{"json", "data", `{"n":268435000,"edges":[]}`},
		{"binary", "data_base64", base64.StdEncoding.EncodeToString(pgb)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		body := map[string]any{
			"property": PropPlanarity,
			"mode":     "exact",
			"graph":    map[string]any{"format": tc.format, tc.key: tc.data},
		}
		resp, out := postJSON(t, srv.URL+"/v1/test", body)
		runtime.ReadMemStats(&after)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: huge n answered %d (want 413) %s", tc.format, resp.StatusCode, out)
		}
		if !strings.Contains(string(out), ErrTooLarge.Error()) {
			t.Fatalf("%s: 413 body %s does not name ErrTooLarge", tc.format, out)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
			t.Fatalf("%s: refusing the body allocated %d bytes", tc.format, grew)
		}
	}
}
