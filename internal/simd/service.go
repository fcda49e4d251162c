package simd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fvp"
	"fvp/internal/coalesce"
	"fvp/internal/store"
	"fvp/internal/telemetry"
)

// Errors surfaced to submitters. The HTTP layer maps ErrQueueFull to
// 503 + Retry-After, ErrClosed to 503 without one, and ErrStore to 500.
var (
	ErrQueueFull = errors.New("simd: run queue is full, retry later")
	ErrClosed    = errors.New("simd: service is shutting down")
	// ErrStore wraps a durable-store failure during admission: the
	// service could not make the job crash-safe, so it refused it.
	ErrStore = errors.New("simd: durable store failure")
)

// RunFunc executes one simulation; the default is fvp.RunContext. Tests
// substitute a counting stub to assert single-flight behavior.
type RunFunc func(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error)

// DefaultCacheSize is the result-cache entry cap when Config.CacheSize
// is 0; cmd/fvpd uses it to size the disk backend identically.
const DefaultCacheSize = 1024

// traceMaxInsts bounds the per-instruction pipeline timeline captured
// for a run submitted with "trace": true (the same knob as fvpsim
// -trace-insts, fixed service-side so one request can't balloon memory).
const traceMaxInsts = 20_000

// Config sizes the service.
type Config struct {
	// Workers is the simulation worker-pool size; default runtime.NumCPU().
	Workers int
	// QueueSize bounds queued-but-not-running unique runs; submits beyond
	// it fail with ErrQueueFull. Default 4×Workers.
	QueueSize int
	// CacheSize bounds the content-addressed result cache's entry count.
	// Default DefaultCacheSize. Ignored when Stores.Results is provided.
	CacheSize int
	// CacheBytes additionally bounds the cache's payload bytes (spec keys
	// plus encoded results); 0 means entries-only. Ignored when
	// Stores.Results is provided.
	CacheBytes int64
	// MaxFinishedJobs bounds how many terminal job records are retained
	// for GET /v1/runs/{id}; the oldest are evicted first. Default 4096.
	MaxFinishedJobs int
	// Stores are the persistence backends. Nil fields default to the
	// in-memory implementations, which preserve the original
	// single-process semantics exactly; cmd/fvpd -data-dir swaps in the
	// crash-safe disk backends (store/disk). The service takes ownership
	// and closes them on Close/Drain.
	Stores store.Stores
	// NodeID names this service instance in a cluster; when set, job IDs
	// are rendered as "<node>.j-<n>" so any peer can route a GET/DELETE
	// by ID to the owning node. Empty (the default) keeps the bare "j-<n>"
	// wire format.
	NodeID string
	// Tenants is the per-tenant admission-control table. The zero value
	// imposes no quotas: every tenant is unlimited and the queue is a
	// single FIFO, exactly the pre-tenancy behavior.
	Tenants TenantConfig
	// BatchWindow enables request coalescing: concurrent submits are
	// coalesced for up to this long (or until BatchMax requests pend)
	// into one admission + durable-store transaction, amortizing quota
	// charging and the per-batch fsync. A cluster node fronting the
	// service coalesces its forwards to each peer with the same window.
	// 0 (the default) disables coalescing; every submit is its own
	// transaction, as before.
	BatchWindow time.Duration
	// BatchMax caps the requests coalesced into one flush; default 256.
	// A full batch flushes immediately without waiting out the window.
	BatchMax int
	// SLOTarget is the advertised request-latency objective; it only
	// annotates the fvpd_request_seconds HELP text so dashboards and
	// humans read p99 against the intended target. 0 means unstated.
	SLOTarget time.Duration
	// Run overrides the simulation function (tests only).
	Run RunFunc
	// clock overrides time.Now for token-bucket refill (tests only).
	clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 4 * c.Workers
	}
	if c.CacheSize <= 0 {
		c.CacheSize = DefaultCacheSize
	}
	if c.MaxFinishedJobs <= 0 {
		c.MaxFinishedJobs = 4096
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 256
	}
	if c.Stores.Jobs == nil {
		c.Stores.Jobs = store.NewMemoryJobStore()
	}
	if c.Stores.Results == nil {
		c.Stores.Results = store.NewMemoryResultStore(c.CacheSize, c.CacheBytes)
	}
	if c.Stores.Blobs == nil {
		c.Stores.Blobs = store.NewMemoryBlobStore(0)
	}
	if c.Run == nil {
		c.Run = fvp.RunContext
	}
	if c.clock == nil {
		c.clock = time.Now
	}
	return c
}

// job is the internal record of one submitted RunRequest. Identical
// concurrent specs share one execution: the first becomes the leader
// (the only job a worker runs); later ones attach as followers and are
// completed from the leader's result.
type job struct {
	id        string
	numID     uint64 // the JobStore's monotonic number behind id
	key       string
	tenant    string      // admission-control attribution ("" = anonymous)
	spec      fvp.RunSpec // normalized
	trace     bool        // leader-only: record a pipeline-trace artifact
	state     State
	cached    bool
	result    *fvp.Metrics
	err       error
	done      chan struct{}
	retained  bool
	artifacts []string

	// Leader-only fields. ctx governs the simulation; live counts the
	// not-yet-canceled jobs (leader + followers) interested in it — when
	// it reaches zero the execution is canceled. progress is the gauge the
	// worker attaches for the duration of the simulation.
	ctx       context.Context
	cancel    context.CancelFunc
	followers []*job
	live      int
	progress  *progressGauge

	// leader points a follower at its leader; nil on leaders.
	leader *job
}

// jobID renders a JobStore number as the wire-visible job ID. The bare
// format predates durable stores; recovered jobs keep their pre-crash
// numbers. In cluster mode (NodeID set) the ID carries the node name so
// peers can route status lookups: "<node>.j-<n>".
func (s *Service) jobID(n uint64) string {
	if s.cfg.NodeID != "" {
		return fmt.Sprintf("%s.j-%08d", s.cfg.NodeID, n)
	}
	return fmt.Sprintf("j-%08d", n)
}

// SplitJobID splits a wire job ID into its node prefix ("" for the bare
// pre-cluster format) and the node-local remainder.
func SplitJobID(id string) (node, local string) {
	if i := strings.LastIndex(id, ".j-"); i >= 0 {
		return id[:i], id[i+1:]
	}
	return "", id
}

// traceKey is the blob key of a run's pipeline-trace artifact. Keyed by
// spec (not job), so the artifact is content-addressed like the result:
// any later job on the same spec serves the same trace.
func traceKey(specKey string) string { return "trace-" + specKey }

// Service is the batch-simulation engine: submit side (dedup, cache,
// bounded queue), a worker pool, job-table bookkeeping, and the durable
// store seams. All mutable state is guarded by mu; simulations run
// outside the lock. Job lifecycle transitions are mirrored into the
// JobStore and completed results into the ResultStore, so with the disk
// backends a crash re-dispatches interrupted jobs and keeps the cache.
type Service struct {
	cfg Config
	st  store.Stores

	mu        sync.Mutex
	cond      *sync.Cond
	tq        *tenants        // per-tenant queued leaders, WRR-drained
	jobs      map[string]*job // every known job by ID
	finished  []string        // terminal job IDs, oldest first (retention)
	inflight  map[string]*job // spec key → leader not yet finalized
	met       counters
	closed    bool
	recovered uint64 // jobs re-dispatched from the JobStore at boot

	// batch is the edge micro-batcher; nil unless Config.BatchWindow > 0.
	batch *coalesce.Batcher[RunRequest, JobStatus]
	// batchSizes is fvpd_batch_size: requests coalesced per flush. A p50
	// near 1 means the window is not seeing concurrency; widen it or stop
	// paying the parking latency.
	batchSizes *telemetry.Hist
	// reqHist is fvpd_request_seconds{path,outcome}: end-to-end request
	// latency per route pattern, the series p50/p99-vs-SLO reads come from.
	reqHist *telemetry.Vec

	// metricsExtra are exposition appenders registered by layers above
	// the service (the cluster router adds its forwarding families), so
	// GET /v1/metrics stays the single scrape target.
	metricsExtra []func(io.Writer)

	// storeErrs counts non-fatal store failures (a result or artifact
	// that could not be persisted); atomic because the blob writer runs
	// outside mu.
	storeErrs atomic.Uint64

	baseCtx    context.Context
	stop       context.CancelFunc
	wg         sync.WaitGroup
	closeStore sync.Once
}

// New starts a service with cfg.Workers simulation workers, re-admitting
// any jobs the JobStore recovered from a previous process (queued or
// running at crash time) ahead of new submissions. Callers own its
// lifetime: Close (or Drain) must be called to release the workers and
// the stores.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:      cfg,
		st:       cfg.Stores,
		tq:       newTenants(cfg.Tenants),
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
		baseCtx:  ctx,
		stop:     cancel,
	}
	s.cond = sync.NewCond(&s.mu)
	s.reqHist = telemetry.NewVec(telemetry.NewLatency)
	if cfg.BatchWindow > 0 {
		s.batchSizes = telemetry.NewSizes()
		s.batch = &coalesce.Batcher[RunRequest, JobStatus]{
			Window:  cfg.BatchWindow,
			Max:     cfg.BatchMax,
			Submit:  s.SubmitBatch,
			OnFlush: func(n int) { s.batchSizes.Observe(float64(n)) },
		}
	}
	s.recoverJobs()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// recoverJobs re-admits the JobStore's surviving jobs before the workers
// start: jobs that were queued or running when the last process died are
// re-dispatched under their original IDs (recovery ignores QueueSize —
// the work was already admitted once). A recovered job whose result
// landed in the ResultStore before the crash completes immediately as a
// cache hit.
func (s *Service) recoverJobs() {
	recs := s.st.Jobs.Recover()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range recs {
		var req RunRequest
		if err := json.Unmarshal(rec.Spec, &req); err != nil {
			s.storeSetState(rec.ID, store.JobFailed, "recovery: unreadable spec: "+err.Error())
			continue
		}
		if flat, err := req.Flattened(); err != nil {
			s.storeSetState(rec.ID, store.JobFailed, "recovery: "+err.Error())
			continue
		} else {
			req = flat
		}
		if err := fvp.Validate(req.RunSpec); err != nil {
			// The binary restarted into a version that no longer knows this
			// spec; fail the job durably rather than crash-looping on it.
			s.storeSetState(rec.ID, store.JobFailed, "recovery: "+err.Error())
			continue
		}
		spec := req.RunSpec.Normalized()
		j := &job{
			id: s.jobID(rec.ID), numID: rec.ID, key: rec.Key, spec: spec,
			tenant: rec.Tenant, trace: req.Trace, done: make(chan struct{}),
		}
		s.jobs[j.id] = j
		s.recovered++

		if s.finishCachedLocked(j) {
			s.storeSetState(rec.ID, store.JobDone, "")
		} else if leader := s.inflight[rec.Key]; leader != nil {
			s.attachFollowerLocked(j, leader)
		} else {
			s.startLeaderLocked(j, req.TimeoutMS)
		}
	}
}

// Submit validates, deduplicates, and enqueues one run, returning the
// job's initial status. A cached or deduplicated submit never consumes a
// queue slot. Returns *fvp.UnknownNameError for bad names, ErrQueueFull
// when the queue is at capacity, ErrClosed during shutdown, ErrStore when
// the durable store refused the job.
func (s *Service) Submit(req RunRequest) (JobStatus, error) {
	sts, err := s.SubmitBatch([]RunRequest{req})
	if err != nil {
		return JobStatus{}, err
	}
	return sts[0], nil
}

// SubmitBatched routes one caller's requests through the edge
// micro-batcher when one is configured (Config.BatchWindow > 0) and
// directly to SubmitBatch otherwise. Concurrent callers within one window
// share a single SubmitBatch — one admission pass, one tenant-quota
// transaction, one durable JobStore append (one fsync on the disk
// backend). Coalesced callers keep their individual semantics — a
// rejection that only applies to the merged batch (another caller's
// quota, a stranger's validation error) degrades to per-caller submits
// rather than poisoning everyone in the window. The HTTP submit path and
// the cluster router's local groups use this entry point.
func (s *Service) SubmitBatched(reqs []RunRequest) ([]JobStatus, error) {
	if s.batch == nil || len(reqs) == 0 {
		return s.SubmitBatch(reqs)
	}
	return s.batch.Do(context.Background(), reqs)
}

// Batching reports the coalescing window and size cap (Config.BatchWindow
// and BatchMax); a zero window means coalescing is off.
func (s *Service) Batching() (window time.Duration, max int) {
	return s.cfg.BatchWindow, s.cfg.BatchMax
}

// SubmitBatch submits a batch atomically with respect to queue capacity,
// tenant quotas, and the durable store: either every new unique run is
// admitted or the whole batch is rejected — with *QuotaError when a
// tenant is over its admission budget, ErrQueueFull when the global
// queue is at capacity (cached and deduplicated entries need neither
// tokens nor a slot), ErrStore when the durable store refused the
// batch's single append. All fresh leaders in the batch share one
// JobStore append — one fsync on the disk backend however many submits
// the micro-batcher coalesced. Validation errors also reject the whole
// batch.
func (s *Service) SubmitBatch(reqs []RunRequest) ([]JobStatus, error) {
	if len(reqs) == 0 {
		return nil, errors.New("simd: empty batch")
	}
	reqs = append([]RunRequest(nil), reqs...)
	for i, r := range reqs {
		flat, err := r.Flattened()
		if err != nil {
			return nil, err
		}
		reqs[i] = flat
		if err := fvp.Validate(flat.RunSpec); err != nil {
			return nil, err
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}

	// Capacity pre-check: count the batch's new unique leaders, per
	// tenant, so the admit decision is all-or-nothing.
	need := 0
	seen := make(map[string]bool)
	perTenant := make(map[string]int)
	for _, r := range reqs {
		key := specKey(r.RunSpec)
		if s.st.Results.Has(key) || s.inflight[key] != nil || seen[key] {
			continue
		}
		seen[key] = true
		need++
		perTenant[r.Tenant]++
	}
	if err := s.admitTenantsLocked(perTenant); err != nil {
		return nil, err
	}
	// Refund the tokens charged above: used on every nothing-was-admitted
	// rejection below.
	refund := func() {
		for tenant, n := range perTenant {
			s.tq.get(tenant).bucket.tokens += float64(n)
		}
	}
	if s.tq.queued+need > s.cfg.QueueSize {
		refund()
		return nil, ErrQueueFull
	}

	// Phase 1: classify every request in submission order, allocating its
	// job number as it is classified so IDs keep their pre-batch sequence,
	// and marshal the fresh leaders' durable records. Nothing is visible
	// yet — a store refusal below rejects the whole batch cleanly.
	const (
		kCached   = iota // result already in the cache
		kLeader          // fresh unique spec: needs a durable record
		kFollower        // attaches to a leader already in flight
		kDup             // duplicate of a leader earlier in this batch
	)
	type admission struct {
		kind  int
		numID uint64
		key   string
		spec  fvp.RunSpec
	}
	adm := make([]admission, len(reqs))
	pending := make(map[string]bool)
	var records []store.JobRecord
	for i, r := range reqs {
		spec := r.RunSpec.Normalized()
		key := specKey(spec)
		a := admission{numID: s.st.Jobs.NextID(), key: key, spec: spec}
		switch {
		case s.st.Results.Has(key):
			a.kind = kCached
		case s.inflight[key] != nil:
			a.kind = kFollower
		case pending[key]:
			a.kind = kDup
		default:
			a.kind = kLeader
			pending[key] = true
			encoded, err := json.Marshal(r)
			if err != nil {
				refund()
				return nil, fmt.Errorf("%w: encoding spec: %v", ErrStore, err)
			}
			records = append(records, store.JobRecord{ID: a.numID, Key: key, Tenant: r.Tenant, Spec: encoded})
		}
		adm[i] = a
	}

	// Phase 2: one durable append covers every fresh leader in the batch —
	// the single fsync that makes coalesced admission cheap. On failure
	// nothing was admitted.
	if err := s.st.Jobs.AppendBatch(records); err != nil {
		refund()
		return nil, fmt.Errorf("%w: %v", ErrStore, err)
	}

	// Phase 3: materialize the jobs in order. A batch-internal duplicate
	// resolves as a follower because its leader — an earlier index — is in
	// s.inflight by the time it is reached.
	out := make([]JobStatus, len(reqs))
	for i, r := range reqs {
		a := adm[i]
		j := &job{
			id: s.jobID(a.numID), numID: a.numID, key: a.key, spec: a.spec,
			tenant: r.Tenant, trace: r.Trace, done: make(chan struct{}),
		}
		switch a.kind {
		case kLeader:
			s.jobs[j.id] = j
			s.startLeaderLocked(j, r.TimeoutMS)
		case kFollower, kDup:
			s.attachFollowerLocked(j, s.inflight[a.key])
		case kCached:
			if s.finishCachedLocked(j) {
				break
			}
			// Has said yes but the record would not decode (version skew in
			// a persistent store) or was evicted since classification. Fall
			// back to the pre-batch behavior for this corner: attach to a
			// same-key leader degraded earlier in this loop, or become a
			// singly-appended leader. Tokens were never charged for it —
			// exactly as before the batch refactor.
			if leader := s.inflight[a.key]; leader != nil {
				s.attachFollowerLocked(j, leader)
				break
			}
			encoded, err := json.Marshal(r)
			if err == nil {
				err = s.st.Jobs.Enqueue(store.JobRecord{ID: a.numID, Key: a.key, Tenant: r.Tenant, Spec: encoded})
			}
			if err != nil {
				s.cond.Broadcast()
				return nil, fmt.Errorf("%w: %v", ErrStore, err)
			}
			s.jobs[j.id] = j
			s.startLeaderLocked(j, r.TimeoutMS)
		}
		// A submit counts a cache hit exactly when it is served cached; a
		// recovered job counts neither.
		if j.cached {
			s.met.cacheHits++
		} else {
			s.met.cacheMisses++
		}
		out[i] = s.status(j)
	}
	s.cond.Broadcast()
	return out, nil
}

// attachFollowerLocked attaches j to an in-flight leader; finalizeLocked
// completes it from the leader's outcome.
func (s *Service) attachFollowerLocked(j, leader *job) {
	s.jobs[j.id] = j
	j.state = leader.state // queued or running
	j.cached = true
	j.leader = leader
	leader.followers = append(leader.followers, j)
	leader.live++
	s.tq.get(j.tenant).inflight++
}

// finishCachedLocked completes j from the result cache and reports
// whether its result was there.
func (s *Service) finishCachedLocked(j *job) bool {
	m, ok := s.cachedMetricsLocked(j.key)
	if !ok {
		return false
	}
	s.jobs[j.id] = j
	j.state = StateDone
	j.cached = true
	j.result = m
	j.artifacts = s.artifactsLocked(j.key)
	s.met.done++
	close(j.done)
	s.retainLocked(j)
	return true
}

// admitTenantsLocked charges each tenant's token bucket for its share of
// the batch's new unique runs, all-or-nothing: if any tenant is over
// quota, tenants already charged are refunded and the whole batch is
// rejected with that tenant's *QuotaError.
func (s *Service) admitTenantsLocked(perTenant map[string]int) error {
	now := s.cfg.clock()
	charged := make([]string, 0, len(perTenant))
	for tenant, n := range perTenant {
		ts := s.tq.get(tenant)
		if err := ts.admit(n, now); err != nil {
			ts.rejected += uint64(n)
			for _, t := range charged {
				s.tq.get(t).bucket.tokens += float64(perTenant[t])
			}
			return err
		}
		if ts.capped && ts.quota.Rate > 0 {
			charged = append(charged, tenant)
		}
	}
	return nil
}

// startLeaderLocked gives a leader its execution context and queues it.
func (s *Service) startLeaderLocked(j *job, timeoutMS int64) {
	var ctx context.Context
	var cancel context.CancelFunc
	if timeoutMS > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, time.Duration(timeoutMS)*time.Millisecond)
	} else {
		ctx, cancel = context.WithCancel(s.baseCtx)
	}
	j.state = StateQueued
	j.ctx, j.cancel = ctx, cancel
	j.live = 1
	s.inflight[j.key] = j
	s.tq.get(j.tenant).inflight++
	s.tq.enqueue(j)
}

// cachedMetricsLocked fetches and decodes a cached result. A record that
// fails to decode (version skew in a persistent store) is treated as a
// miss rather than served corrupt.
func (s *Service) cachedMetricsLocked(key string) (*fvp.Metrics, bool) {
	b, ok := s.st.Results.Get(key)
	if !ok {
		return nil, false
	}
	var m fvp.Metrics
	if err := json.Unmarshal(b, &m); err != nil {
		s.storeErrs.Add(1)
		return nil, false
	}
	return &m, true
}

// artifactsLocked lists the blob keys published for a spec key.
func (s *Service) artifactsLocked(key string) []string {
	if s.st.Blobs.Has(traceKey(key)) {
		return []string{traceKey(key)}
	}
	return nil
}

// storeSetState mirrors a leader's state into the JobStore, counting
// (rather than surfacing) failures: the in-memory job table remains
// authoritative for a live process, durability just degrades.
func (s *Service) storeSetState(numID uint64, state, errMsg string) {
	if err := s.st.Jobs.SetState(numID, state, errMsg); err != nil {
		s.storeErrs.Add(1)
	}
}

// worker pulls leaders off the run queue and simulates them until the
// service closes and the queue drains.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.tq.queued == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.tq.queued == 0 {
			s.mu.Unlock()
			return
		}
		j := s.tq.dequeue()
		j.setStateLocked(StateRunning)
		j.progress = &progressGauge{target: j.spec.MeasureInsts}
		s.met.running++
		s.storeSetState(j.numID, store.JobRunning, "")
		s.mu.Unlock()

		// Attach a progress gauge (and the requested trace) to a copy of
		// the spec: the taps are json:"-" and outside the cache key, so the
		// simulated work and its identity are untouched. A run shape that
		// cannot take taps — region-parallel and sampled runs measure their
		// slices concurrently, where samples would interleave — fails the
		// façade's validation with them attached and runs untapped.
		spec := j.spec
		spec.Observer = j.progress
		var tracer *fvp.PipeTrace
		if j.trace {
			tracer = fvp.NewPipeTrace(traceMaxInsts)
			spec.Tracer = tracer
		}
		if fvp.Validate(spec) != nil {
			spec, tracer = j.spec, nil
		}

		var m fvp.Metrics
		err := j.ctx.Err()
		start := time.Now()
		if err == nil {
			m, err = s.cfg.Run(j.ctx, spec)
		}
		elapsed := time.Since(start)

		if err == nil && tracer != nil {
			// Publish the trace before the result: once the job reads done,
			// its artifact list is stable.
			var buf bytes.Buffer
			if terr := tracer.WriteChromeTrace(&buf); terr != nil {
				s.storeErrs.Add(1)
			} else if perr := s.st.Blobs.Put(traceKey(j.key), buf.Bytes()); perr != nil {
				s.storeErrs.Add(1)
			}
		}

		s.mu.Lock()
		s.met.running--
		if err == nil {
			// Persist the result before the done record: recovery must never
			// find a durably-done job without its result.
			if encoded, merr := json.Marshal(m); merr != nil {
				s.storeErrs.Add(1)
			} else if perr := s.st.Results.Put(j.key, encoded); perr != nil {
				s.storeErrs.Add(1)
			}
			s.met.simCycles += m.Cycles
			s.met.simSkippedCycles += m.SkippedCycles
			s.met.simInsts += m.Insts
			s.met.simFFInsts += m.FFInsts
			if m.Sampling != nil {
				s.met.simSampledInsts += m.Sampling.SampledInsts
			}
			s.met.simSeconds += elapsed.Seconds()
		}
		s.finalizeLocked(j, m, err)
		s.mu.Unlock()
	}
}

// setStateLocked moves a leader and its non-terminal followers to st.
func (j *job) setStateLocked(st State) {
	if !j.state.terminal() {
		j.state = st
	}
	for _, f := range j.followers {
		if !f.state.terminal() {
			f.state = st
		}
	}
}

// finalizeLocked completes a leader and all its followers from one
// execution outcome, releasing the in-flight slot and the ctx timer, and
// mirrors the outcome into the JobStore.
func (s *Service) finalizeLocked(j *job, m fvp.Metrics, err error) {
	delete(s.inflight, j.key)
	j.cancel()

	// The durable record tracks the execution outcome. Followers admitted
	// in this process have no durable record (SetState ignores their
	// IDs); recovered followers do, and must reach a terminal state or
	// the next restart re-admits them.
	outState, outMsg := store.JobDone, ""
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		outState, outMsg = store.JobCanceled, err.Error()
	default:
		outState, outMsg = store.JobFailed, err.Error()
	}

	leaderRecorded := false
	for _, target := range append([]*job{j}, j.followers...) {
		if target.state.terminal() {
			continue
		}
		switch {
		case err == nil:
			target.state = StateDone
			target.result = &m
			target.artifacts = s.artifactsLocked(j.key)
			s.met.done++
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			target.state = StateCanceled
			target.err = err
			s.met.canceled++
		default:
			target.state = StateFailed
			target.err = err
			s.met.failed++
		}
		s.tq.get(target.tenant).inflight--
		close(target.done)
		s.retainLocked(target)
		s.storeSetState(target.numID, outState, outMsg)
		if target == j {
			leaderRecorded = true
		}
	}
	s.retainLocked(j) // leader may have been canceled individually earlier
	if !leaderRecorded {
		// An individually-canceled leader whose execution still completed:
		// record the execution's outcome for its durable record.
		s.storeSetState(j.numID, outState, outMsg)
	}
}

// retainLocked records a terminal job for retention-bounded lookup,
// evicting the oldest terminal records beyond the cap.
func (s *Service) retainLocked(j *job) {
	if j.retained {
		return
	}
	j.retained = true
	s.finished = append(s.finished, j.id)
	for len(s.finished) > s.cfg.MaxFinishedJobs {
		evict := s.finished[0]
		s.finished = s.finished[1:]
		delete(s.jobs, evict)
	}
}

// Cancel cancels one job. Canceling a deduplicated follower only detaches
// that follower; the underlying simulation stops when its last interested
// job is canceled, observed by the cycle loop within a few thousand
// simulated cycles.
func (s *Service) Cancel(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || j.state.terminal() {
		return false
	}
	j.state = StateCanceled
	j.err = context.Canceled
	s.met.canceled++
	s.tq.get(j.tenant).inflight--
	close(j.done)
	s.retainLocked(j)

	leader := j
	if j.leader != nil {
		leader = j.leader
	}
	leader.live--
	if leader.live > 0 {
		return true
	}
	// Last interested party gone: stop the simulation. A queued leader is
	// removed from the run queue eagerly so its slot frees immediately; a
	// running one exits at the cycle loop's next context poll.
	leader.cancel()
	if s.tq.remove(leader) {
		s.finalizeLocked(leader, fvp.Metrics{}, context.Canceled)
	}
	return true
}

// Get returns a job's current status.
func (s *Service) Get(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return s.status(j), true
}

// List returns the known jobs — bounded by MaxFinishedJobs retention —
// in submission order, optionally filtered to one state. It is how
// recovered-after-restart jobs are observed (GET /v1/runs?state=queued).
func (s *Service) List(state State) []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		if state != "" && j.state != state {
			continue
		}
		out = append(out, s.status(j))
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// OpenArtifact streams a job's published artifact (e.g. its pipeline
// trace). Returns store.ErrNotFound when the job exists but published no
// such artifact.
func (s *Service) OpenArtifact(id, name string) (io.ReadCloser, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("simd: no such job %q: %w", id, store.ErrNotFound)
	}
	if name != "trace" {
		return nil, store.ErrNotFound
	}
	return s.st.Blobs.Open(traceKey(j.key))
}

// Wait blocks until the job reaches a terminal state or ctx fires. A ctx
// cancellation counts as the waiter abandoning the job — it is canceled
// (detached if deduplicated), which is how a client disconnect on a
// wait-mode request stops the underlying simulation.
func (s *Service) Wait(ctx context.Context, id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("simd: no such job %q", id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		s.Cancel(id)
		st, _ := s.Get(id)
		return st, ctx.Err()
	}
	st, _ := s.Get(id)
	return st, nil
}

// Snapshot returns the current service counters.
func (s *Service) Snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	results := s.st.Results.Stats()
	// Tenants worth reporting: named, quota-bound, or with history. The
	// lone anonymous unlimited tenant of a pre-tenancy deployment stays
	// invisible so the stats wire form is unchanged.
	var tenants map[string]TenantStats
	for name, ts := range s.tq.byName {
		if name == "" && !ts.capped && ts.rejected == 0 {
			continue
		}
		if tenants == nil {
			tenants = make(map[string]TenantStats, len(s.tq.byName))
		}
		tenants[name] = TenantStats{Inflight: ts.inflight, Rejected: ts.rejected}
	}
	return Stats{
		JobsQueued:       s.tq.queued,
		JobsRunning:      s.met.running,
		Tenants:          tenants,
		JobsDone:         s.met.done,
		JobsFailed:       s.met.failed,
		JobsCanceled:     s.met.canceled,
		JobsRecovered:    s.recovered,
		CacheHits:        s.met.cacheHits,
		CacheMisses:      s.met.cacheMisses,
		CacheEntries:     results.Records,
		CacheBytes:       results.Bytes,
		StoreJobs:        s.st.Jobs.Stats(),
		StoreResults:     results,
		StoreBlobs:       s.st.Blobs.Stats(),
		StoreErrors:      s.storeErrs.Load(),
		SimCycles:        s.met.simCycles,
		SimInsts:         s.met.simInsts,
		SimSeconds:       s.met.simSeconds,
		SimSkippedCycles: s.met.simSkippedCycles,
		SimFFInsts:       s.met.simFFInsts,
		SimSampledInsts:  s.met.simSampledInsts,
	}
}

// QueueFree returns the remaining queue capacity (for health reporting).
func (s *Service) QueueFree() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.cfg.QueueSize - s.tq.queued
	if n < 0 {
		n = 0
	}
	return n
}

// Workers returns the worker-pool size.
func (s *Service) Workers() int { return s.cfg.Workers }

// HasCachedResult reports whether the content-addressed result for a
// spec key is locally cached — its own computation or a received
// replica. The cluster layer uses it to serve replicated hot keys with
// zero forward hops.
func (s *Service) HasCachedResult(key string) bool {
	return s.st.Results.Has(key)
}

// CachedResultBytes returns the encoded cached result for a spec key,
// the payload the cluster layer pushes to ring successors when a key
// runs hot.
func (s *Service) CachedResultBytes(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.Results.Get(key)
}

// PutCachedResult installs an encoded result under its spec key — the
// receiving half of hot-result replication. The payload must decode as
// fvp.Metrics; garbage is refused rather than cached. Content
// addressing makes replication trivially coherent: a spec key is the
// hash of a deterministic simulation's input, so its result is
// immutable and a replicated entry can never be stale.
func (s *Service) PutCachedResult(key string, value []byte) error {
	var m fvp.Metrics
	if err := json.Unmarshal(value, &m); err != nil {
		return fmt.Errorf("simd: replicated result for %s undecodable: %w", key, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.st.Results.Put(key, value); err != nil {
		s.storeErrs.Add(1)
		return fmt.Errorf("%w: %v", ErrStore, err)
	}
	return nil
}

// AddMetricsAppender registers fn to run at the end of every metrics
// exposition (WriteMetrics / GET /v1/metrics). Layers above the service —
// the cluster router's per-peer forwarding counters — use it so one
// scrape target covers the whole node.
func (s *Service) AddMetricsAppender(fn func(io.Writer)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metricsExtra = append(s.metricsExtra, fn)
}

// Drain gracefully shuts down: new submits are rejected, queued and
// running jobs finish, workers exit, and the stores are closed. If ctx
// fires first the remaining work is canceled (and finishes as canceled).
func (s *Service) Drain(ctx context.Context) error {
	// Flush the micro-batcher before refusing submits: callers already
	// parked in the window get a real admit/reject decision, and their
	// jobs drain with everything else.
	if s.batch != nil {
		s.batch.Close()
	}
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.stop()
		<-drained
	}
	s.stop()
	s.closeStore.Do(func() { s.st.Close() })
	return err
}

// Close shuts down immediately: in-flight simulations are canceled at
// their next context poll and finish in the canceled state, then the
// stores are closed.
func (s *Service) Close() {
	if s.batch != nil {
		s.batch.Close()
	}
	s.stop()
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	s.closeStore.Do(func() { s.st.Close() })
}

// progressGauge tracks a running simulation's retirement count. It
// implements fvp.Observer; samples arrive on the simulating goroutine
// while status reads happen under the service lock, so the counter is
// atomic rather than mutex-guarded.
type progressGauge struct {
	retired atomic.Uint64
	target  uint64
}

func (g *progressGauge) OnInterval(m fvp.IntervalMetrics) {
	g.retired.Add(m.Insts)
}

func (g *progressGauge) snapshot() *Progress {
	p := &Progress{RetiredInsts: g.retired.Load(), TargetInsts: g.target}
	if p.TargetInsts > 0 {
		p.Ratio = float64(p.RetiredInsts) / float64(p.TargetInsts)
		if p.Ratio > 1 {
			p.Ratio = 1
		}
	}
	return p
}

// status renders the externally visible snapshot; callers hold s.mu.
func (s *Service) status(j *job) JobStatus {
	st := JobStatus{
		ID:        j.id,
		State:     j.state,
		Cached:    j.cached,
		Spec:      j.spec,
		Tenant:    j.tenant,
		Node:      s.cfg.NodeID,
		Metrics:   j.result,
		Artifacts: j.artifacts,
	}
	if j.state == StateRunning {
		leader := j
		if j.leader != nil {
			leader = j.leader
		}
		if leader.progress != nil {
			st.Progress = leader.progress.snapshot()
		}
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}
