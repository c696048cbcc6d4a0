// Package service is the serving subsystem of the reproduction: a job
// manager with a bounded run pool, a content-addressed LRU result cache
// keyed on (graph, options, seed), job states with cancellation, and
// Prometheus-style counters. cmd/planard exposes it over HTTP; the
// architecture and the cache-soundness argument live in DESIGN.md §7.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/congest"
	"repro/internal/obs"
)

// Config sizes the Manager.
type Config struct {
	// MaxConcurrent bounds how many jobs run the engine at once (the
	// run pool size). 0 means GOMAXPROCS/EngineWorkers (at least 1).
	MaxConcurrent int
	// QueueDepth bounds the number of queued jobs; Submit returns
	// ErrQueueFull beyond it. 0 means 64 * MaxConcurrent.
	QueueDepth int
	// CacheEntries sizes the LRU result cache. 0 means 4096; negative
	// disables caching.
	CacheEntries int
	// CacheBytes bounds the in-memory result-cache tier by accounted
	// outcome bytes (the entry's canonical JSON size). 0 means 256 MiB;
	// negative removes the byte bound (CacheEntries still applies).
	CacheBytes int64
	// CacheDir enables the disk-backed second cache tier under this
	// directory: outcomes are written through and survive restarts, so
	// a restarted instance keeps its hit rate. Entries failing the
	// integrity check are quarantined, never served. Empty disables.
	CacheDir string
	// DiskCacheBytes bounds the disk tier's live entries; oldest are
	// evicted past it. 0 means 4 GiB; negative removes the bound.
	DiskCacheBytes int64
	// MemoryBudget bounds the bytes admitted into the process at once:
	// streaming request bodies plus the decoded graphs of queued and
	// running jobs. Overflow is shed with ErrOverloaded (503 on the
	// wire) instead of growing toward OOM. 0 disables admission
	// control.
	MemoryBudget int64
	// EngineWorkers is the per-job engine worker-pool size
	// (core.Options.Workers). 0 means GOMAXPROCS: one job then
	// saturates the host, which suits few large graphs; set 1 and raise
	// MaxConcurrent for many small graphs.
	EngineWorkers int
	// JobRetention bounds how many finished jobs stay addressable via
	// Job() after completion. 0 means 16384.
	JobRetention int
	// CheckpointDir enables crash recovery: eligible runs (planarity,
	// non-EN Stage I) persist periodic engine checkpoints under this
	// directory, and Recover re-enqueues interrupted jobs after a
	// restart. Empty disables durability.
	CheckpointDir string
	// CheckpointEvery is the barrier interval between durable
	// checkpoints. 0 means 256; smaller values bound lost work tighter
	// at more I/O per run.
	CheckpointEvery int
	// MaxTimeout caps (and, when a request carries no timeout, supplies)
	// the per-job wall-clock bound. 0 means requests without a timeout
	// run unbounded.
	MaxTimeout time.Duration
	// Logger receives the manager's structured logs (job lifecycle,
	// recovery, quarantine), each record scoped with the job id and cache
	// key. nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	// Non-positive values fall back to defaults (CacheEntries excepted:
	// negative documented as "disable"), so a stray -1 flag cannot
	// start a manager with zero workers or a negative queue.
	if c.MaxConcurrent <= 0 {
		per := c.EngineWorkers
		if per <= 0 {
			per = runtime.GOMAXPROCS(0)
		}
		c.MaxConcurrent = runtime.GOMAXPROCS(0) / per
		if c.MaxConcurrent < 1 {
			c.MaxConcurrent = 1
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64 * c.MaxConcurrent
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	} else if c.CacheBytes < 0 {
		c.CacheBytes = 0 // unbounded by bytes
	}
	if c.DiskCacheBytes == 0 {
		c.DiskCacheBytes = 4 << 30
	} else if c.DiskCacheBytes < 0 {
		c.DiskCacheBytes = 0 // unbounded
	}
	if c.JobRetention <= 0 {
		c.JobRetention = 16384
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 256
	}
	return c
}

// Errors reported by Submit.
var (
	ErrQueueFull = errors.New("service: job queue full")
	ErrClosed    = errors.New("service: manager closed")
)

// Manager owns the job queue, the run pool, the result cache, and the
// metrics. Create with New, dispose with Close.
type Manager struct {
	cfg     Config
	cache   *tieredCache
	metrics *Metrics
	store   *ckptStore // nil when CheckpointDir is unset
	budget  byteBudget
	log     *slog.Logger
	seq     atomic.Int64

	draining atomic.Bool

	queue chan *Job
	wg    sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	jobs     map[string]*Job // by job ID; finished jobs kept for polling
	retained []*Job          // FIFO over jobs, for retention eviction
	inflight map[string]*Job // by cache key; queued or running only
}

// New starts a Manager with cfg.withDefaults(): MaxConcurrent pool
// goroutines consuming a QueueDepth-bounded queue.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	lg := cfg.Logger
	if lg == nil {
		lg = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	m := &Manager{
		cfg:      cfg,
		metrics:  newMetrics(),
		log:      lg,
		queue:    make(chan *Job, cfg.QueueDepth),
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
	}
	m.budget.total = cfg.MemoryBudget
	var disk *diskCache
	if cfg.CacheDir != "" {
		// A disk tier that fails to open costs persistence, not
		// service: the manager degrades to the memory tier alone
		// (cmd/planard validates the directory up front and fails fast
		// on real misconfiguration).
		if d, err := newDiskCache(cfg.CacheDir, cfg.DiskCacheBytes, &m.metrics.Quarantined); err == nil {
			disk = d
		}
	}
	m.cache = newTieredCache(newResultCache(cfg.CacheEntries, cfg.CacheBytes), disk, &m.metrics.DiskHits)
	if cfg.CheckpointDir != "" {
		m.store = newCkptStore(cfg.CheckpointDir)
	}
	m.metrics.cacheEntries = m.cache.Len
	m.metrics.cacheBytesMem = m.cache.Bytes
	if disk != nil {
		m.metrics.cacheBytesDisk = disk.size
	}
	m.metrics.inflightBytes = m.budget.used.Load
	for i := 0; i < cfg.MaxConcurrent; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Close drains the pool: no new jobs are accepted, and queued or
// running jobs are canceled (they finish with context.Canceled before
// touching the engine, or abort at the next round barrier). Blocks
// until every pool goroutine exits.
func (m *Manager) Close() {
	m.draining.Store(true)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	close(m.queue)
	for _, j := range m.inflight {
		j.cancel()
	}
	m.mu.Unlock()
	m.wg.Wait()
}

// Metrics returns the service counters.
func (m *Manager) Metrics() *Metrics { return m.metrics }

// CacheLen returns the number of outcomes in the memory cache tier.
func (m *Manager) CacheLen() int { return m.cache.Len() }

// BeginDrain marks the manager as draining: /readyz answers 503 so
// load balancers stop routing before requests start failing, while
// in-flight work keeps running. Submission is unaffected (Close, not
// BeginDrain, stops the pool); call it when graceful shutdown starts.
func (m *Manager) BeginDrain() { m.draining.Store(true) }

// Draining reports whether BeginDrain (or Close) has been called.
func (m *Manager) Draining() bool { return m.draining.Load() }

// Saturated reports whether the byte budget is currently full: new
// work would be shed, so readiness probes should fail.
func (m *Manager) Saturated() bool { return m.budget.saturated() }

// AdmitBytes reserves n bytes of the admission budget for a request
// body while it streams in; the returned release must be called once
// decoding is over (the decoded graph is then accounted separately by
// Submit). A saturated budget sheds with ErrOverloaded; n larger than
// the whole budget is ErrTooLarge. n <= 0 (unknown length) admits
// without reserving.
func (m *Manager) AdmitBytes(n int64) (release func(), err error) {
	if err := m.budget.tryAcquire(n); err != nil {
		m.metrics.ShedRequests.Add(1)
		return nil, err
	}
	var once sync.Once
	return func() { once.Do(func() { m.budget.release(n) }) }, nil
}

// Submit validates req and returns its job without waiting for it:
//
//   - cache hit: a job already in StateDone, served without touching
//     the engine;
//   - an identical request is queued or running: that job is returned
//     (work is coalesced; all submitters observe the same run);
//   - otherwise: a fresh job, enqueued for the run pool.
//
// The underlying job may be shared; the returned Submission is this
// caller's private handle on it (its Cancel is idempotent and releases
// only this caller's attachment).
func (m *Manager) Submit(ctx context.Context, req *Request) (*Submission, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if m.isClosed() {
		return nil, ErrClosed
	}
	key := req.CacheKey()

	if out, ok := m.cache.Get(key); ok {
		m.metrics.CacheHits.Add(1)
		m.metrics.CountJob(req.Property, "done")
		j := m.newJob(req, key)
		j.CacheHit = true
		j.releaseGraph()
		j.finish(out, nil)
		m.mu.Lock()
		m.rememberLocked(j) // registered even when racing Close: the id must poll
		m.mu.Unlock()
		return &Submission{Job: j}, nil
	}

	// Fresh work pins its decoded graph while queued and running:
	// charge it against the admission budget before taking a queue
	// slot, and shed (503 on the wire) when the budget cannot fit it.
	// Only the fresh-job path below keeps the charge; a coalesced
	// submit shares the already-charged job.
	charge := GraphMemBytes(req.Graph)
	if err := m.budget.tryAcquire(charge); err != nil {
		m.metrics.ShedRequests.Add(1)
		m.metrics.CountJob(req.Property, "shed")
		return nil, err
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.budget.release(charge)
		return nil, ErrClosed
	}
	if j, ok := m.inflight[key]; ok {
		j.attach()
		m.mu.Unlock()
		m.budget.release(charge)
		m.metrics.Coalesced.Add(1)
		return &Submission{Job: j}, nil
	}
	j := m.newJob(req, key)
	j.charged = charge
	select {
	case m.queue <- j:
	default:
		m.mu.Unlock()
		m.budget.release(charge)
		m.metrics.ShedRequests.Add(1)
		m.metrics.CountJob(req.Property, "rejected")
		return nil, fmt.Errorf("%w (depth %d)", ErrQueueFull, m.cfg.QueueDepth)
	}
	// Incremented before the lock drops: a worker that races this
	// submit cannot drive the gauge below zero.
	m.metrics.JobsInFlight.Add(1)
	m.inflight[key] = j
	m.rememberLocked(j)
	m.mu.Unlock()
	return &Submission{Job: j}, nil
}

// Run is the synchronous convenience wrapper: Submit then Wait.
func (m *Manager) Run(ctx context.Context, req *Request) (*Outcome, error) {
	j, err := m.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	return j.Wait(ctx)
}

func (m *Manager) isClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Job returns a job by ID.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// newJob allocates a job shell in StateQueued. The request is copied:
// the job owns its Request (releaseGraph drops the graph reference at a
// terminal state without mutating the caller's struct).
func (m *Manager) newJob(req *Request, key string) *Job {
	cp := *req
	j := &Job{
		ID:       fmt.Sprintf("j%06d-%s", m.seq.Add(1), key[:12]),
		Key:      key,
		Request:  &cp,
		Created:  time.Now(),
		done:     make(chan struct{}),
		cancelCh: make(chan struct{}),
	}
	j.state.Store(int32(StateQueued))
	j.attached.Store(1)
	return j
}

// rememberLocked indexes j for polling, evicting the oldest finished
// jobs beyond the retention bound. Live (queued/running) jobs are never
// evicted — they rotate to the back so eviction continues behind a
// long-running head instead of stalling on it. Callers hold m.mu.
func (m *Manager) rememberLocked(j *Job) {
	m.jobs[j.ID] = j
	m.retained = append(m.retained, j)
	rotations := 0
	for len(m.retained) > m.cfg.JobRetention {
		old := m.retained[0]
		m.retained = m.retained[1:]
		if old.State() == StateQueued || old.State() == StateRunning {
			m.retained = append(m.retained, old)
			if rotations++; rotations > len(m.retained) {
				return // everything retained is live; nothing to evict
			}
			continue
		}
		delete(m.jobs, old.ID)
	}
}

// forget drops j's in-flight key reservation.
func (m *Manager) forget(j *Job) {
	m.mu.Lock()
	if m.inflight[j.Key] == j {
		delete(m.inflight, j.Key)
	}
	m.mu.Unlock()
}

// effectiveTimeout combines a request's timeout with the server-side
// cap: MaxTimeout bounds every request and supplies the bound for
// requests that carry none.
func (m *Manager) effectiveTimeout(req time.Duration) time.Duration {
	limit := m.cfg.MaxTimeout
	if limit <= 0 {
		return req
	}
	if req <= 0 || req > limit {
		return limit
	}
	return req
}

// durableRequest reports whether a run can be checkpointed: only the
// step-model planarity tester implements engine snapshots. The EN
// baseline and the other properties run fine without durability — their
// jobs simply restart from scratch after a crash is not offered. Exact
// runs finish in milliseconds; checkpointing them would cost more than
// re-running.
func durableRequest(req *Request) bool {
	return req.Property == PropPlanarity && req.Variant != VariantEN && req.Mode != ModeExact
}

// checkpointConfig is the engine-side checkpoint plumbing for one
// durable job: snapshots land in the job's directory, sink failures are
// counted and cost durability only.
func (m *Manager) checkpointConfig(key string) congest.CheckpointConfig {
	return congest.CheckpointConfig{
		EveryBarriers: m.cfg.CheckpointEvery,
		Sink: func(round int, data []byte) error {
			if err := m.store.writeCkpt(key, data); err != nil {
				return err
			}
			m.metrics.CheckpointsWritten.Add(1)
			return nil
		},
		OnError: func(round int, err error) { m.metrics.CheckpointErrs.Add(1) },
	}
}

// Recover scans CheckpointDir for runs interrupted by a crash and
// re-enqueues them, resuming each from its latest valid checkpoint (or
// from round 0 when none landed). Directories that cannot be
// reconstructed are quarantined. Call once, after New and before
// serving traffic; returns the number of jobs re-enqueued.
func (m *Manager) Recover() (int, error) {
	if m.store == nil {
		return 0, nil
	}
	jobs, err := m.store.scan()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, rj := range jobs {
		if err := m.resubmit(rj); err != nil {
			// Queue full or closing: the job directory stays on disk
			// for the next restart instead of being dropped.
			m.log.Warn("recovered job not re-enqueued; kept on disk",
				"key", rj.req.CacheKey(), "err", err)
			continue
		}
		n++
	}
	return n, nil
}

// resubmit enqueues one recovered job. Mirrors Submit's fresh-job path
// (the result cache is empty after a restart) plus the resume snapshot,
// which must be attached before a worker can pick the job up.
func (m *Manager) resubmit(rj recoveredJob) error {
	key := rj.req.CacheKey()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if _, ok := m.inflight[key]; ok {
		return nil // an identical live job already covers this work
	}
	j := m.newJob(rj.req, key)
	j.resume = rj.resume
	j.charged = GraphMemBytes(rj.req.Graph)
	if err := m.budget.tryAcquire(j.charged); err != nil {
		// Over budget at startup: the job directory stays on disk for
		// the next restart instead of being dropped.
		return err
	}
	select {
	case m.queue <- j:
	default:
		m.budget.release(j.charged)
		return fmt.Errorf("%w (depth %d)", ErrQueueFull, m.cfg.QueueDepth)
	}
	m.metrics.JobsInFlight.Add(1)
	m.metrics.RecoveredJobs.Add(1)
	m.inflight[key] = j
	m.rememberLocked(j)
	return nil
}

// worker is one run-pool goroutine: it drains the queue and executes
// jobs on the engine.
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.execute(j)
	}
}

// execute runs one job to a terminal state. The graph reference is
// dropped once the run is over: up to JobRetention finished jobs stay
// pollable, and they must not pin their (potentially huge) inputs.
func (m *Manager) execute(j *Job) {
	defer m.metrics.JobsInFlight.Add(-1)
	defer m.forget(j)
	defer j.releaseGraph()

	lg := m.log.With("job_id", j.ID, "key", j.Key, "property", j.Request.Property)
	if j.canceled() {
		m.metrics.CountJob(j.Request.Property, "failed")
		lg.Info("job canceled before start")
		m.budget.release(j.charged)
		j.finish(nil, context.Canceled)
		return
	}
	j.setState(StateRunning)
	m.metrics.CacheMisses.Add(1)

	env := runEnv{workers: m.cfg.EngineWorkers, cancel: j.cancelCh, resume: j.resume}
	if j.Request.Property == PropPlanarity && j.Request.Mode != ModeExact {
		// Instrument the run: a fresh probe per job (phase IDs are
		// per-run) and a progress cell that GET /v1/jobs/{id} snapshots
		// while the engine is inside the run.
		env.probe = obs.NewProbe()
		env.progress = obs.NewProgress(env.probe)
		j.progress.Store(env.progress)
	}
	if t := m.effectiveTimeout(j.Request.Timeout); t > 0 {
		env.deadline = time.Now().Add(t)
	}
	durable := false
	if m.store != nil && durableRequest(j.Request) {
		durable = true
		if err := m.store.writeSpec(j.Key, j.Request); err != nil {
			m.metrics.CheckpointErrs.Add(1) // run without durability
			lg.Warn("job spec write failed; running without durability", "err", err)
		} else {
			env.checkpoint = m.checkpointConfig(j.Key)
		}
	}
	lg.Info("job started", "n", j.Request.Graph.N(), "m", j.Request.Graph.M(),
		"resumed", env.resume != nil, "durable", durable)
	// Any terminal state — done, failed, canceled, deadline — ends the
	// job's durability window: a restart must not re-run it. The dir is
	// removed before finish publishes, so a completed job is never
	// observable alongside its durable state, and the admission bytes
	// are released before it, so a woken client sees the meter drained.
	finish := func(out *Outcome, err error) {
		if durable {
			m.store.remove(j.Key)
		}
		m.budget.release(j.charged)
		j.finish(out, err)
	}

	out, err := run(j.Request, env)
	if err != nil && env.resume != nil && errors.Is(err, congest.ErrBadSnapshot) {
		// The recovered checkpoint passed the integrity scan but failed
		// restore (e.g. a format or graph mismatch): quarantine it and
		// re-run the job from round 0 rather than failing it.
		m.metrics.CheckpointErrs.Add(1)
		m.store.quarantine(j.Key, ckptFile)
		lg.Warn("recovered checkpoint failed restore; quarantined, re-running from round 0", "err", err)
		env.resume = nil
		out, err = run(j.Request, env)
	}
	if err != nil {
		m.metrics.CountJob(j.Request.Property, "failed")
		lg.Info("job failed", "err", err)
		finish(nil, err)
		return
	}
	if out.Mode == ModeExact {
		m.metrics.ExactRuns.Add(1)
	}
	mm := out.Metrics
	m.metrics.SimulatedRnds.Add(int64(mm.Rounds))
	m.metrics.ModeledRnds.Add(mm.ModeledRounds)
	m.metrics.Messages.Add(mm.Messages)
	m.metrics.GraphNodes.Add(int64(out.GraphN))
	m.metrics.GraphEdges.Add(int64(out.GraphM))
	m.metrics.AddWallSeconds(out.WallSeconds)
	m.metrics.ObserveRun(j.Request.Property, out.WallSeconds)
	m.metrics.AddPhases(out.Phases)
	m.metrics.CountJob(j.Request.Property, "done")
	m.cache.Put(j.Key, out)
	lg.Info("job done", "verdict", out.Verdict, "rounds", mm.Rounds, "wall_seconds", out.WallSeconds)
	finish(out, nil)
}
