package service

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/congest"
	"repro/internal/graph"
)

func testManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.EngineWorkers == 0 {
		cfg.EngineWorkers = 1
	}
	m := New(cfg)
	t.Cleanup(m.Close)
	return m
}

func gridRequest(prop string) *Request {
	return &Request{Property: prop, Epsilon: 0.25, Seed: 1, Graph: graph.Grid(8, 8)}
}

func TestRunEveryProperty(t *testing.T) {
	m := testManager(t, Config{})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(4))
	// A positive instance per property: every node must accept.
	instance := map[string]*graph.Graph{
		PropPlanarity:     graph.Grid(8, 8),
		PropCycleFree:     graph.RandomTree(64, rng),
		PropBipartiteness: graph.Grid(8, 8),
		PropOuterplanar:   graph.Outerplanar(48, rng),
		PropSpanner:       graph.Grid(8, 8),
	}
	for _, prop := range Properties() {
		out, err := m.Run(ctx, &Request{Property: prop, Epsilon: 0.25, Seed: 1, Graph: instance[prop]})
		if err != nil {
			t.Fatalf("%s: %v", prop, err)
		}
		if out.Rejected {
			t.Fatalf("%s rejected its positive instance", prop)
		}
		if out.Metrics.Rounds <= 0 {
			t.Fatalf("%s: no simulated rounds", prop)
		}
		if prop == PropSpanner && out.SpannerEdges <= 0 {
			t.Fatal("spanner outcome has no edges")
		}
	}
}

func TestRejectsFarFromPlanar(t *testing.T) {
	m := testManager(t, Config{})
	out, err := m.Run(context.Background(), &Request{
		Property: PropPlanarity, Epsilon: 0.05, Seed: 3, Graph: graph.Complete(40),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Rejected || out.Verdict != "reject" {
		t.Fatalf("K40 accepted: %+v", out)
	}
}

func TestCacheHitSkipsEngine(t *testing.T) {
	m := testManager(t, Config{})
	ctx := context.Background()
	req := gridRequest(PropPlanarity)
	first, err := m.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if h, ms := m.Metrics().CacheHits.Load(), m.Metrics().CacheMisses.Load(); h != 0 || ms != 1 {
		t.Fatalf("after first run: hits=%d misses=%d", h, ms)
	}

	// The same logical request in a fresh Request (and via a different
	// wire format, were it serialized) must hit.
	j, err := m.Submit(ctx, gridRequest(PropPlanarity))
	if err != nil {
		t.Fatal(err)
	}
	if !j.CacheHit || j.State() != StateDone {
		t.Fatalf("second submit: cacheHit=%v state=%v", j.CacheHit, j.State())
	}
	second, err := j.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatal("cache hit returned a different outcome object")
	}
	if h, ms := m.Metrics().CacheHits.Load(), m.Metrics().CacheMisses.Load(); h != 1 || ms != 1 {
		t.Fatalf("after second run: hits=%d misses=%d", h, ms)
	}

	// Different seed, property, epsilon, or variant must all miss.
	for _, req := range []*Request{
		{Property: PropPlanarity, Epsilon: 0.25, Seed: 2, Graph: graph.Grid(8, 8)},
		{Property: PropCycleFree, Epsilon: 0.25, Seed: 1, Graph: graph.Grid(8, 8)},
		{Property: PropPlanarity, Epsilon: 0.5, Seed: 1, Graph: graph.Grid(8, 8)},
		{Property: PropPlanarity, Epsilon: 0.25, Seed: 1, Variant: VariantRandomized, Graph: graph.Grid(8, 8)},
	} {
		if _, err := m.Run(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if h, ms := m.Metrics().CacheHits.Load(), m.Metrics().CacheMisses.Load(); h != 1 || ms != 5 {
		t.Fatalf("distinct options should miss: hits=%d misses=%d", h, ms)
	}
}

func TestCacheEviction(t *testing.T) {
	m := testManager(t, Config{CacheEntries: 2})
	ctx := context.Background()
	for seed := int64(1); seed <= 3; seed++ {
		req := gridRequest(PropPlanarity)
		req.Seed = seed
		if _, err := m.Run(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.CacheLen(); n != 2 {
		t.Fatalf("cache holds %d entries, want 2 (LRU cap)", n)
	}
	// Seed 1 was evicted (least recently used): a re-run misses.
	req := gridRequest(PropPlanarity)
	if _, err := m.Run(ctx, req); err != nil {
		t.Fatal(err)
	}
	if h := m.Metrics().CacheHits.Load(); h != 0 {
		t.Fatalf("evicted entry served a hit (hits=%d)", h)
	}
}

func TestConcurrentIdenticalSubmitsCoalesce(t *testing.T) {
	m := testManager(t, Config{MaxConcurrent: 2})
	ctx := context.Background()
	const clients = 8
	var wg sync.WaitGroup
	outs := make([]*Outcome, clients)
	errs := make([]error, clients)
	rng := rand.New(rand.NewSource(9))
	g := graph.RandomPlanar(400, 800, rng)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = m.Run(ctx, &Request{Property: PropPlanarity, Epsilon: 0.25, Seed: 7, Graph: g})
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if outs[i].Rejected {
			t.Fatalf("client %d: rejected planar graph", i)
		}
	}
	// All clients observed one engine run: misses + coalesced + hits
	// account for every submit, with exactly one miss... unless some
	// client submitted after the run finished, which is a cache hit.
	mm := m.Metrics()
	if mm.CacheMisses.Load() != 1 {
		t.Fatalf("misses=%d, want 1 (single engine run)", mm.CacheMisses.Load())
	}
	if got := mm.CacheHits.Load() + mm.Coalesced.Load(); got != clients-1 {
		t.Fatalf("hits+coalesced=%d, want %d", got, clients-1)
	}
}

func TestJobLifecycleAndPolling(t *testing.T) {
	m := testManager(t, Config{})
	ctx := context.Background()
	j, err := m.Submit(ctx, gridRequest(PropPlanarity))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Job(j.ID); !ok {
		t.Fatal("submitted job not addressable by ID")
	}
	out, err := j.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if j.State() != StateDone {
		t.Fatalf("state %v after Wait", j.State())
	}
	v := j.View()
	if v.State != "done" || v.Outcome != out || v.Error != "" {
		t.Fatalf("view %+v inconsistent with result", v)
	}
	if _, ok := m.Job("j999999-nope"); ok {
		t.Fatal("unknown job ID resolved")
	}
}

func TestCancelQueuedJob(t *testing.T) {
	// One slow job occupies the single worker; a second job is canceled
	// while queued and must fail with context.Canceled, never touching
	// the engine.
	m := testManager(t, Config{MaxConcurrent: 1, QueueDepth: 4})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	blocker, err := m.Submit(ctx, &Request{
		Property: PropPlanarity, Epsilon: 0.1, Seed: 1, Graph: graph.MaximalPlanar(3000, rng),
	})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := m.Submit(ctx, gridRequest(PropCycleFree))
	if err != nil {
		t.Fatal(err)
	}
	victim.Cancel()
	if _, err := victim.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled queued job returned %v", err)
	}
	if victim.State() != StateFailed {
		t.Fatalf("canceled job state %v", victim.State())
	}
	if _, err := blocker.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if hits := m.Metrics().CacheMisses.Load(); hits != 1 {
		t.Fatalf("engine ran %d times, want 1 (victim canceled before running)", hits)
	}
}

func TestCoalescedCancelNeedsAllSubmitters(t *testing.T) {
	// Two identical submits share one job; the first Cancel must not
	// abort the run out from under the second submitter.
	m := testManager(t, Config{MaxConcurrent: 1, QueueDepth: 8})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(14))
	blocker, err := m.Submit(ctx, &Request{
		Property: PropPlanarity, Epsilon: 0.1, Seed: 1, Graph: graph.MaximalPlanar(3000, rng),
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Submit(ctx, gridRequest(PropBipartiteness))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(ctx, gridRequest(PropBipartiteness))
	if err != nil {
		t.Fatal(err)
	}
	if a.Job != b.Job {
		t.Fatal("identical queued submits were not coalesced")
	}
	a.Cancel() // one of two submitters abandons: run must survive
	a.Cancel() // double Cancel on one handle must not spend b's veto
	if a.canceled() {
		t.Fatal("job canceled while a submitter is still attached")
	}
	out, err := b.Wait(ctx)
	if err != nil {
		t.Fatalf("surviving submitter got %v", err)
	}
	if out.Rejected {
		t.Fatal("grid rejected")
	}
	if _, err := blocker.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestCancelIdempotentPerSubmission(t *testing.T) {
	// Regression for the old Job.Cancel footgun: each Cancel used to
	// drain one attachment, so a client calling it twice (e.g. a defer
	// plus an explicit call) canceled the run for everyone coalesced
	// onto it. A Submission handle releases at most once.
	m := testManager(t, Config{MaxConcurrent: 1, QueueDepth: 8})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(15))
	blocker, err := m.Submit(ctx, &Request{
		Property: PropPlanarity, Epsilon: 0.1, Seed: 1, Graph: graph.MaximalPlanar(3000, rng),
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Submit(ctx, gridRequest(PropBipartiteness))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(ctx, gridRequest(PropBipartiteness))
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.Submit(ctx, gridRequest(PropBipartiteness))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		a.Cancel() // five times, one attachment
	}
	b.Cancel()
	if a.canceled() {
		t.Fatal("job canceled while a submitter is still attached")
	}
	out, err := c.Wait(ctx)
	if err != nil {
		t.Fatalf("surviving submitter got %v", err)
	}
	if out.Rejected {
		t.Fatal("grid rejected")
	}
	if _, err := blocker.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestCancelRunningJob(t *testing.T) {
	m := testManager(t, Config{MaxConcurrent: 1})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(6))
	j, err := m.Submit(ctx, &Request{
		Property: PropPlanarity, Epsilon: 0.05, Seed: 1, Graph: graph.MaximalPlanar(20000, rng),
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Cancel()
	_, err = j.Wait(ctx)
	if err == nil {
		t.Fatal("canceled run reported success")
	}
	if !errors.Is(err, congest.ErrCanceled) && !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v", err)
	}
	// The failed run must not poison the cache.
	if m.CacheLen() != 0 {
		t.Fatal("canceled run was cached")
	}
}

func TestQueueFull(t *testing.T) {
	m := testManager(t, Config{MaxConcurrent: 1, QueueDepth: 1})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	// Fill the worker and the 1-deep queue with slow distinct jobs. The
	// first must leave the queue (reach the worker) before the second
	// enqueues, so poll its state.
	for seed := int64(0); seed < 2; seed++ {
		j, err := m.Submit(ctx, &Request{
			Property: PropPlanarity, Epsilon: 0.1, Seed: seed, Graph: graph.MaximalPlanar(3000, rng),
		})
		if err != nil {
			t.Fatal(err)
		}
		if seed == 0 {
			for j.State() == StateQueued {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}
	_, err := m.Submit(ctx, gridRequest(PropPlanarity))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull queue returned %v", err)
	}
}

func TestJobRetentionEvictsBehindLiveHead(t *testing.T) {
	// A long-running job near the head of the retention FIFO must not
	// stall eviction: finished jobs around it are still evicted once
	// the bound is exceeded, and the live job itself is never evicted.
	m := testManager(t, Config{MaxConcurrent: 1, JobRetention: 4, QueueDepth: 64})
	ctx := context.Background()
	if _, err := m.Run(ctx, gridRequest(PropPlanarity)); err != nil {
		t.Fatal(err) // warm the cache so replays finish instantly
	}
	rng := rand.New(rand.NewSource(13))
	blocker, err := m.Submit(ctx, &Request{
		Property: PropPlanarity, Epsilon: 0.05, Seed: 1, Graph: graph.MaximalPlanar(20000, rng),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cache-hit replays: each is a fresh finished job entering
	// retention behind (then rotating past) the live blocker.
	var ids []string
	for i := 0; i < 20; i++ {
		j, err := m.Submit(ctx, gridRequest(PropPlanarity))
		if err != nil {
			t.Fatal(err)
		}
		if !j.CacheHit {
			t.Fatal("replay missed the cache")
		}
		ids = append(ids, j.ID)
	}
	m.mu.Lock()
	retained := len(m.retained)
	m.mu.Unlock()
	if retained > 4+1 { // cap, +1 tolerated while a live job rotates
		t.Fatalf("retained %d jobs, cap is 4", retained)
	}
	if _, ok := m.Job(blocker.ID); !ok {
		t.Fatal("live job was evicted from the index")
	}
	if _, ok := m.Job(ids[0]); ok {
		t.Fatal("oldest finished job survived past the retention cap")
	}
	blocker.Cancel()
	if _, err := blocker.Wait(ctx); err == nil {
		t.Fatal("canceled blocker reported success")
	}
}

func TestSubmitValidation(t *testing.T) {
	m := testManager(t, Config{})
	ctx := context.Background()
	cases := []*Request{
		{Property: PropPlanarity, Epsilon: 0.25, Graph: nil},
		{Property: PropPlanarity, Epsilon: 0, Graph: graph.Grid(2, 2)},
		{Property: PropPlanarity, Epsilon: 1.5, Graph: graph.Grid(2, 2)},
		{Property: PropPlanarity, Epsilon: math.NaN(), Graph: graph.Grid(2, 2)},
		{Property: "treewidth", Epsilon: 0.25, Graph: graph.Grid(2, 2)},
		{Property: PropSpanner, Epsilon: 0.25, Variant: VariantEN, Graph: graph.Grid(2, 2)},
		{Property: PropPlanarity, Epsilon: 0.25, Variant: "quantum", Graph: graph.Grid(2, 2)},
	}
	for i, req := range cases {
		if _, err := m.Submit(ctx, req); err == nil {
			t.Fatalf("case %d: invalid request accepted", i)
		}
	}
}

func TestManagerClose(t *testing.T) {
	m := New(Config{MaxConcurrent: 1, EngineWorkers: 1})
	rng := rand.New(rand.NewSource(8))
	j, err := m.Submit(context.Background(), &Request{
		Property: PropPlanarity, Epsilon: 0.05, Seed: 1, Graph: graph.MaximalPlanar(20000, rng),
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Close() // cancels the running job and waits for the pool
	if _, err := j.Wait(context.Background()); err == nil {
		t.Fatal("job survived Close without error")
	}
	if _, err := m.Submit(context.Background(), gridRequest(PropPlanarity)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close returned %v", err)
	}
	m.Close() // idempotent
}

func TestMetricsRendering(t *testing.T) {
	m := testManager(t, Config{})
	if _, err := m.Run(context.Background(), gridRequest(PropPlanarity)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(context.Background(), gridRequest(PropPlanarity)); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := m.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"planard_cache_hits_total 1",
		"planard_cache_misses_total 1",
		"planard_cache_entries 1",
		`planard_jobs_total{property="planarity",status="done"} 2`,
		"# TYPE planard_jobs_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}

// awaitDone spins until j is terminal, then returns Wait's result. A
// waiter spinning on its own CPU sees done the moment it closes, before
// the worker that closed it can run anything after finish, so a release
// that follows finish shows up as bytes still held. On a single CPU it
// yields instead, so the worker can run.
func awaitDone(j *Submission) error {
	yield := runtime.GOMAXPROCS(0) == 1
	for {
		select {
		case <-j.done:
			_, err := j.Wait(context.Background())
			return err
		default:
			if yield {
				runtime.Gosched()
			}
		}
	}
}

// TestAdmissionMeterDrainsBeforeWake: a job gives its admission bytes
// back before it wakes its waiters, on the run path and on the
// canceled-before-start path, so a client returning from Wait never
// sees its own job still charged.
func TestAdmissionMeterDrainsBeforeWake(t *testing.T) {
	m := testManager(t, Config{MaxConcurrent: 1})
	ctx := context.Background()
	for seed := int64(0); seed < 600; seed++ {
		j, err := m.Submit(ctx, &Request{Property: PropCycleFree, Epsilon: 0.25, Seed: seed, Graph: graph.Grid(4, 4)})
		if err != nil {
			t.Fatal(err)
		}
		if err := awaitDone(j); err != nil {
			t.Fatal(err)
		}
		if used := m.budget.used.Load(); used != 0 {
			t.Fatalf("job %d: %d admission bytes still held after Wait returned", seed, used)
		}
	}

	// A blocker holds the only worker while victims (fresh seeds, so no
	// cache hits) queue behind it and are canceled; then the blocker is
	// canceled too, and the worker fails the victims one by one without
	// running them. After victim k's Wait returns, only the victims
	// behind it may still be charged.
	big := graph.MaximalPlanar(3000, rand.New(rand.NewSource(5)))
	g := graph.Grid(4, 4)
	charge := GraphMemBytes(g)
	const rounds, victims = 60, 40
	subs := make([]*Submission, victims)
	for r := int64(0); r < rounds; r++ {
		blocker, err := m.Submit(ctx, &Request{Property: PropPlanarity, Epsilon: 0.1, Seed: r, Graph: big})
		if err != nil {
			t.Fatal(err)
		}
		for k := range subs {
			seed := 1000 + r*victims + int64(k)
			if subs[k], err = m.Submit(ctx, &Request{Property: PropCycleFree, Epsilon: 0.25, Seed: seed, Graph: g}); err != nil {
				t.Fatal(err)
			}
			subs[k].Cancel()
		}
		blocker.Cancel()
		awaitDone(blocker) // canceled mid-run, or done if it won the race
		for k, s := range subs {
			if err := awaitDone(s); !errors.Is(err, context.Canceled) {
				t.Fatalf("round %d: victim %d returned %v", r, k, err)
			}
			if used, limit := m.budget.used.Load(), int64(victims-1-k)*charge; used > limit {
				t.Fatalf("round %d: victim %d: %d admission bytes held after Wait returned, want at most %d",
					r, k, used, limit)
			}
		}
	}
}
