package service

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strings"
	"time"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/graphio"
)

// HandlerConfig tunes the HTTP front-end.
type HandlerConfig struct {
	// MaxRequestBytes bounds request bodies (0: 512 MiB).
	MaxRequestBytes int64
}

// wireRequest is the JSON body of POST /v1/test. The graph travels
// inline ("data" for text formats, "data_base64" for binary) or as a
// multipart part named "graph".
type wireRequest struct {
	Property string  `json:"property"`
	Epsilon  float64 `json:"epsilon"`
	Seed     int64   `json:"seed"`
	Variant  string  `json:"variant"`
	Mode     string  `json:"mode"`
	// Timeout is a Go duration string ("30s", "2m") bounding the run's
	// wall clock; a timed-out sync request answers 504. The server's
	// MaxTimeout caps it.
	Timeout string `json:"timeout,omitempty"`
	Async   bool   `json:"async"`
	Graph   *struct {
		Format     string `json:"format"`
		Data       string `json:"data"`
		DataBase64 string `json:"data_base64"`
	} `json:"graph"`
}

// NewHandler exposes m over HTTP:
//
//	POST   /v1/test       run a test (sync by default, async=true for 202 + job)
//	GET    /v1/jobs/{id}  poll a job
//	DELETE /v1/jobs/{id}  release the HTTP submitters' interest
//	                      (idempotent); the run aborts once all
//	                      coalesced submitters canceled
//	GET    /metrics       Prometheus text exposition
//	GET    /healthz       liveness
//	GET    /readyz        readiness: 503 while draining or while the
//	                      admission byte budget is saturated, so load
//	                      balancers stop routing before requests fail
func NewHandler(m *Manager, hc HandlerConfig) http.Handler {
	if hc.MaxRequestBytes == 0 {
		hc.MaxRequestBytes = 512 << 20
	}
	mux := http.NewServeMux()
	// Every route is wrapped with the latency recorder under a fixed
	// route name, so planard_request_seconds{route,status} cardinality is
	// bounded by this list times the statuses the handlers answer.
	handle := func(pattern, route string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
			h(rec, r)
			m.Metrics().ObserveRequest(route, rec.status, time.Since(start).Seconds())
		})
	}
	handle("POST /v1/test", "test", func(w http.ResponseWriter, r *http.Request) {
		handleTest(m, hc, w, r)
	})
	handle("GET /v1/jobs/{id}", "job_get", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		writeJSONResponse(w, http.StatusOK, j.View())
	})
	handle("DELETE /v1/jobs/{id}", "job_delete", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		j.cancelHTTP()
		writeJSONResponse(w, http.StatusOK, j.View())
	})
	handle("GET /metrics", "metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		m.Metrics().WritePrometheus(w)
	})
	handle("GET /healthz", "healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		io.WriteString(w, "ok\n")
	})
	handle("GET /readyz", "readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		switch {
		case m.Draining():
			w.Header().Set("Retry-After", retryAfterSeconds)
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "draining\n")
		case m.Saturated():
			w.Header().Set("Retry-After", retryAfterSeconds)
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "overloaded\n")
		default:
			io.WriteString(w, "ready\n")
		}
	})
	return mux
}

// statusRecorder captures the status a handler answered with so the
// latency recorder can label its observation. Handlers that never call
// WriteHeader implicitly answer 200.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

// retryAfterSeconds is the Retry-After hint on every shed response:
// shedding means transient pressure (a full queue or byte budget), so
// clients should back off briefly, not give up.
const retryAfterSeconds = "1"

// handleTest decodes a test request (JSON or multipart), submits it,
// and either waits (sync) or returns the queued job (async, 202).
func handleTest(m *Manager, hc HandlerConfig, w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, hc.MaxRequestBytes)
	// Byte-accounted admission: the declared body length is reserved
	// against the global budget while the body streams into the graph
	// readers, so a burst of concurrent uploads sheds instead of
	// buffering its way to OOM. Chunked bodies (ContentLength < 0)
	// pass here and are still bounded by MaxRequestBytes.
	releaseBody, err := m.AdmitBytes(r.ContentLength)
	if err != nil {
		shedError(w, err)
		return
	}
	req, async, err := decodeTestRequest(r, m.graphNodeCap())
	releaseBody()
	if m.budget.total > 0 && errors.Is(err, graphio.ErrNodeLimit) {
		// The graph could never fit the budget: refused like an
		// oversized Submit, before the reader allocated it.
		m.metrics.ShedRequests.Add(1)
		shedError(w, fmt.Errorf("%w: %w", ErrTooLarge, err))
		return
	}
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, err)
		return
	}
	if r.URL.Query().Get("async") == "1" || r.URL.Query().Get("async") == "true" {
		async = true
	}
	j, err := m.Submit(r.Context(), req)
	if err != nil {
		if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrOverloaded) ||
			errors.Is(err, ErrTooLarge) || errors.Is(err, ErrClosed) {
			shedError(w, err)
			return
		}
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if async {
		writeJSONResponse(w, http.StatusAccepted, j.View())
		return
	}
	if _, err := j.Wait(r.Context()); err != nil {
		if errors.Is(err, congest.ErrDeadlineExceeded) {
			// The run hit its wall-clock bound; the failure is terminal
			// (and, like every failure, never cached).
			writeJSONResponse(w, http.StatusGatewayTimeout, j.View())
			return
		}
		if j.State() == StateFailed {
			// Engine-side failure (panic, cancellation): the view
			// carries the error.
			writeJSONResponse(w, http.StatusInternalServerError, j.View())
			return
		}
		// The client went away; the job keeps running for the cache.
		httpError(w, http.StatusGatewayTimeout, err)
		return
	}
	writeJSONResponse(w, http.StatusOK, j.View())
}

// decodeTestRequest parses the two wire shapes of POST /v1/test. The
// graph reader refuses graphs of more than maxNodes nodes.
func decodeTestRequest(r *http.Request, maxNodes int) (*Request, bool, error) {
	ct := r.Header.Get("Content-Type")
	mediaType := ct
	if ct != "" {
		if mt, _, err := mime.ParseMediaType(ct); err == nil {
			mediaType = mt
		}
	}
	if strings.HasPrefix(mediaType, "multipart/") {
		return decodeMultipart(r, maxNodes)
	}
	var wire wireRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wire); err != nil {
		return nil, false, fmt.Errorf("bad request body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = fmt.Errorf("unexpected token")
		}
		return nil, false, fmt.Errorf("trailing data after request object: %w", err)
	}
	if wire.Graph == nil {
		return nil, false, fmt.Errorf("request has no graph (inline \"graph\" object or multipart part)")
	}
	f, err := graphio.ParseFormat(wire.Graph.Format)
	if err != nil {
		return nil, false, err
	}
	// Both payload shapes stream into the reader; no intermediate
	// copies of a potentially huge graph.
	var rd io.Reader
	switch {
	case wire.Graph.DataBase64 != "" && wire.Graph.Data != "":
		return nil, false, fmt.Errorf("graph has both data and data_base64")
	case wire.Graph.DataBase64 != "":
		rd = base64.NewDecoder(base64.StdEncoding, strings.NewReader(wire.Graph.DataBase64))
	default:
		rd = strings.NewReader(wire.Graph.Data)
	}
	g, err := graphio.ReadLimit(rd, f, maxNodes)
	if err != nil {
		return nil, false, err
	}
	req, err := wireToRequest(wire, g)
	return req, wire.Async, err
}

// maxMultipartFieldBytes bounds each non-graph multipart field. The
// fields carry options JSON or scalar values; anything bigger is a
// malformed request, not a large graph.
const maxMultipartFieldBytes = 1 << 20

// decodeMultipart parses multipart/form-data: a "request" field with
// the options JSON (graph omitted) and a "graph" file part, optionally
// a "format" field (default: autodetect, trying the filename first).
//
// The body is consumed as a stream: parts are visited in wire order
// and the graph part is fed straight into the graphio reader, so a
// multi-hundred-MB upload is never buffered in memory or on disk (the
// old ParseMultipartForm path silently spooled everything past 32MB to
// temp files). The only ordering constraint this imposes is that a
// "format" field, which changes how the graph bytes are parsed, must
// precede the "graph" part.
func decodeMultipart(r *http.Request, maxNodes int) (*Request, bool, error) {
	mr, err := r.MultipartReader()
	if err != nil {
		return nil, false, fmt.Errorf("bad multipart body: %w", err)
	}
	fields := make(map[string]string)
	var g *graph.Graph
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, false, fmt.Errorf("bad multipart body: %w", err)
		}
		name := part.FormName()
		if name == "graph" {
			if g != nil {
				part.Close()
				return nil, false, fmt.Errorf("duplicate graph part")
			}
			f, err := graphio.ParseFormat(fields["format"])
			if err != nil {
				part.Close()
				return nil, false, err
			}
			if f == graphio.Auto {
				f = graphio.DetectPath(part.FileName())
			}
			g, err = graphio.ReadLimit(part, f, maxNodes)
			part.Close()
			if err != nil {
				return nil, false, err
			}
			continue
		}
		if name == "format" && g != nil {
			part.Close()
			return nil, false, fmt.Errorf("format field must precede the graph part (the graph is decoded as it streams)")
		}
		val, err := readFieldValue(part, name)
		part.Close()
		if err != nil {
			return nil, false, err
		}
		fields[name] = val
	}
	if g == nil {
		return nil, false, fmt.Errorf("missing graph part")
	}

	var wire wireRequest
	if s := fields["request"]; s != "" {
		dec := json.NewDecoder(strings.NewReader(s))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&wire); err != nil {
			return nil, false, fmt.Errorf("bad request field: %w", err)
		}
		if wire.Graph != nil {
			return nil, false, fmt.Errorf("multipart request must carry the graph as a part, not inline")
		}
	} else {
		// Bare-form convenience: property/epsilon/seed as form values.
		wire.Property = fields["property"]
		wire.Variant = fields["variant"]
		wire.Mode = fields["mode"]
		if s := fields["epsilon"]; s != "" {
			if _, err := fmt.Sscan(s, &wire.Epsilon); err != nil {
				return nil, false, fmt.Errorf("bad epsilon %q", s)
			}
		}
		if s := fields["seed"]; s != "" {
			if _, err := fmt.Sscan(s, &wire.Seed); err != nil {
				return nil, false, fmt.Errorf("bad seed %q", s)
			}
		}
		wire.Async = fields["async"] == "1" || fields["async"] == "true"
	}
	if s := fields["timeout"]; s != "" {
		wire.Timeout = s
	}
	req, err := wireToRequest(wire, g)
	return req, wire.Async, err
}

// readFieldValue drains one small (non-graph) multipart field.
func readFieldValue(part io.Reader, name string) (string, error) {
	b, err := io.ReadAll(io.LimitReader(part, maxMultipartFieldBytes+1))
	if err != nil {
		return "", fmt.Errorf("reading field %q: %w", name, err)
	}
	if len(b) > maxMultipartFieldBytes {
		return "", fmt.Errorf("field %q exceeds %d bytes", name, maxMultipartFieldBytes)
	}
	return string(b), nil
}

func wireToRequest(wire wireRequest, g *graph.Graph) (*Request, error) {
	req := &Request{
		Property: wire.Property,
		Epsilon:  wire.Epsilon,
		Seed:     wire.Seed,
		Variant:  wire.Variant,
		Mode:     wire.Mode,
		Graph:    g,
	}
	if wire.Timeout != "" {
		d, err := time.ParseDuration(wire.Timeout)
		if err != nil {
			return nil, fmt.Errorf("bad timeout %q: %w", wire.Timeout, err)
		}
		req.Timeout = d
	}
	return req, nil
}

func writeJSONResponse(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSONResponse(w, status, map[string]string{"error": err.Error()})
}

// shedError maps admission-control rejections onto the degradation
// ladder's wire contract: transient pressure (full queue, saturated
// budget, draining) answers 503 + Retry-After so well-behaved clients
// back off and retry; a request that can never fit answers 413.
func shedError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrTooLarge) {
		httpError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	w.Header().Set("Retry-After", retryAfterSeconds)
	httpError(w, http.StatusServiceUnavailable, err)
}
