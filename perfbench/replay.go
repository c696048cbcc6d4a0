package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/graphio"
	"repro/internal/service"
)

// replayResult is what the in-process replay of the serve-mixed script
// measured.
type replayResult struct {
	requests int
	hits     int

	lt     layerTotals
	dec    decodeTotals
	or     oracleTotals
	hashMs []float64
	mem    *memWindow
	nodes  int
	maxN   int
}

// replay plays the scripts in process, clients interleaved request by
// request, through the layers the HTTP path crosses: graphio.Read,
// Request.CacheKey, Manager.Submit and Job.Wait (with the engine time
// the outcome reports), and the view encode. It records a span per call,
// accounts the heap, and runs the exact oracle standalone on every
// exact-mode miss. Every outcome is checked like an HTTP reply and must
// equal the outcome planard served for the same request (served holds
// the HTTP replies per client, in script order).
func replay(dir string, scripts [][]scriptReq, served [][]reply, tr *tracer, rep *report) (*replayResult, error) {
	m := service.New(service.Config{EngineWorkers: 1, CacheDir: filepath.Join(dir, "cache")})
	defer m.Close()
	res := &replayResult{}
	outcomes := make([][]*service.Outcome, len(scripts))
	res.mem = startMem()
	for i, u := 0, 0; ; i++ {
		played := false
		for c := range scripts {
			if i >= len(scripts[c]) {
				continue
			}
			played = true
			r := &scripts[c][i]
			out, hit, err := replayOne(tr, u, r, m, res)
			if err != nil {
				return nil, err
			}
			outcomes[c] = append(outcomes[c], out)
			res.requests++
			if out == nil {
				rep.op(fmt.Sprintf("replayed %s request failed", r.property))
				u++
				continue
			}
			var orig *service.Outcome
			if r.class == classRepeat {
				orig = outcomes[c][r.orig]
			}
			rep.op(checkReply(reply{req: r, view: &service.View{State: "done", CacheHit: hit, Outcome: out}}, orig))
			if sv := served[c][i].view; sv != nil && sv.Outcome != nil && !sameOutcome(out, sv.Outcome) {
				rep.problem("replayed request %d of client %d differs from the outcome planard served", i, c)
			}
			switch {
			case hit:
				res.hits++
			case r.mode == service.ModeExact:
				g, err := graphio.Read(bytes.NewReader(r.payload), r.format)
				if err != nil {
					return nil, err
				}
				got := res.or.decide(tr, -1, u, g)
				rep.op(oracleComplaint(fmt.Sprintf("ingest request %d", u), got.Planar, !r.far))
			default:
				mm := out.Metrics
				res.lt.add(int64(mm.Rounds), mm.Messages, mm.TotalBits, mm.MaxMessageBits, out.Phases)
			}
			res.nodes += r.n
			res.maxN = max(res.maxN, r.n)
			u++
		}
		if !played {
			break
		}
	}
	res.mem.finish()
	return res, nil
}

// replayOne plays one request, returning its outcome (nil on failure)
// and whether the cache answered it.
func replayOne(tr *tracer, u int, r *scriptReq, m *service.Manager, res *replayResult) (*service.Outcome, bool, error) {
	root := tr.begin("request", -1, u)
	tr.spanN(root, r.n)

	s := tr.begin("graphio.Read", root, u)
	g, err := graphio.Read(bytes.NewReader(r.payload), r.format)
	d := tr.end(s)
	if err != nil {
		return nil, false, fmt.Errorf("decoding scripted graph: %w", err)
	}
	tr.spanBytes(s, int64(len(r.payload)))
	res.dec.add(r.format, int64(len(r.payload)), d.Seconds())

	req := &service.Request{Property: r.property, Epsilon: r.eps, Seed: r.seed,
		Variant: r.variant, Mode: r.mode, Graph: g}
	if err := req.Validate(); err != nil {
		return nil, false, fmt.Errorf("scripted request: %w", err)
	}
	s = tr.begin("service.CacheKey", root, u)
	req.CacheKey()
	res.hashMs = append(res.hashMs, ms(tr.end(s)))

	s = tr.begin("service.Submit", root, u)
	sub, err := m.Submit(context.Background(), req)
	tr.end(s)
	if err != nil {
		tr.end(root)
		return nil, false, nil
	}
	s = tr.begin("service.Wait", root, u)
	out, err := sub.Wait(context.Background())
	if err == nil && !sub.CacheHit {
		tr.add("engine", s, u, time.Duration(out.WallSeconds*float64(time.Second)))
	}
	tr.end(s)
	if err != nil {
		tr.end(root)
		return nil, false, nil
	}

	s = tr.begin("service.ViewEncode", root, u)
	if _, err := json.Marshal(sub.View()); err != nil {
		return nil, false, err
	}
	tr.end(s)
	tr.end(root)
	return out, sub.CacheHit, nil
}

func (r *replayResult) report(rep *report) {
	r.lt.report(rep)
	rep.set("partition.collect_s", 0, "s")
	rep.set("mem.alloc_bytes_per_node", float64(r.mem.allocBytes)/float64(r.nodes), "B/node")
	rep.set("mem.allocs_per_node", float64(r.mem.allocs)/float64(r.nodes), "allocs/node")
	rep.set("mem.peak_heap_bytes_per_node", float64(r.mem.peakHeap)/float64(r.maxN), "B/node")
	r.dec.report(rep)
	rep.set("graphio.hash_ms_p50", median(r.hashMs), "ms")
	r.or.report(rep)
	rep.set("service.cache_hit_ratio", float64(r.hits)/float64(r.requests), "ratio")
}
