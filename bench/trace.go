package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fvp"
	"fvp/internal/simd"
	"fvp/internal/store"
)

// span is one timed call into a layer. Spans of one request or run share
// its simd.SpecKey. A span recorded without a parent (the service's
// internals cannot carry one) is linked later to the innermost request
// span with the same key that contains it.
type span struct {
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Attr   string `json:"attr,omitempty"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Timed marks spans that ended in the timed phase (the rest are
	// set-up).
	Timed bool `json:"timed,omitempty"`
	// Simulation counters of run and stage spans.
	Insts   uint64 `json:"insts,omitempty"`
	FF      uint64 `json:"ff_insts,omitempty"`
	Sampled uint64 `json:"sampled_insts,omitempty"`
	Cycles  uint64 `json:"cycles,omitempty"`
	Skipped uint64 `json:"skipped_cycles,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A traced run records
// every call during set-up, none in its untraced stretches, and in its
// traced stretches every sampled op with the calls made for it: the
// service's layers see only a spec key, so they record a call while an op
// with that key is traced.
type tracer struct {
	epoch time.Time
	// all records every call; off records none. Otherwise ops are sampled.
	all, off atomic.Bool
	// every traces one op in every; ops counts ops seen.
	every, ops atomic.Int64
	// timed marks the spans recorded in the timed phase.
	timed atomic.Bool
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
	// keys counts the traced ops in flight per spec key.
	keys map[string]int

	// enqueued maps a spec key to when its job was durably admitted, for
	// the queue-wait span that ends when a worker starts the run.
	enqueued sync.Map
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), keys: map[string]int{}}
	t.all.Store(true)
	t.every.Store(1)
	return t
}

// traceOp reports whether to trace the next op, and if so marks its key
// traced until the returned func is called.
func (t *tracer) traceOp(key string) (bool, func()) {
	if t == nil || t.off.Load() || t.all.Load() || t.ops.Add(1)%t.every.Load() != 0 {
		return false, func() {}
	}
	t.mu.Lock()
	t.keys[key]++
	t.mu.Unlock()
	return true, func() {
		t.mu.Lock()
		if t.keys[key]--; t.keys[key] == 0 {
			delete(t.keys, key)
		}
		t.mu.Unlock()
	}
}

// tracing reports whether to record a call made for spec key.
func (t *tracer) tracing(key string) bool {
	if t == nil || t.off.Load() {
		return false
	}
	if t.all.Load() {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.keys[key] > 0
}

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// add records a finished span.
func (t *tracer) add(s span, start, end time.Time) {
	if s.ID == 0 {
		s.ID = t.newID()
	}
	s.Start, s.End = t.ns(start), t.ns(end)
	s.Timed = t.timed.Load()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// do runs fn as span s, under a CPU-profile label naming the layer. fn
// may fill in the span's counters.
func (t *tracer) do(ctx context.Context, s span, fn func(*span)) {
	start := time.Now()
	pprof.Do(ctx, pprof.Labels("layer", s.Name), func(context.Context) { fn(&s) })
	t.add(s, start, time.Now())
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// parentKey carries the ID of the span an op's work belongs to.
type parentKey struct{}

func withParent(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, parentKey{}, id)
}

func parentOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(parentKey{}).(uint64)
	return id
}

// spanHeader carries a client op's span ID to the node it enters.
const spanHeader = "X-Bench-Span"

// handler times every request a node serves as span name, keyed by the
// spec key of the first run in the body.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if t.off.Load() || r.Body == nil {
			h.ServeHTTP(w, r)
			return
		}
		raw, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(raw))
		s := span{Name: name}
		s.Parent, _ = strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		if reqs, _, err := simd.ParseRuns(raw); err == nil && len(reqs) > 0 {
			if flat, err := reqs[0].Flattened(); err == nil {
				s.Key = simd.SpecKey(flat.RunSpec)
			}
		}
		if !t.tracing(s.Key) {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		pprof.Do(r.Context(), pprof.Labels("layer", name), func(ctx context.Context) {
			h.ServeHTTP(w, r.WithContext(ctx))
		})
		t.add(s, start, time.Now())
	})
}

// runFunc is the simulation a traced service runs: the composed path, so
// the run splits into its stages, after a span for the time the job
// waited between durable admission and a worker.
func (t *tracer) runFunc() simd.RunFunc {
	return func(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error) {
		key := simd.SpecKey(spec)
		if !t.tracing(key) {
			return fvp.RunContext(ctx, spec)
		}
		if at, ok := t.enqueued.LoadAndDelete(key); ok {
			t.add(span{Name: "simd.queue_wait", Key: key}, at.(time.Time), time.Now())
		}
		return composedRun(ctx, t, key, spec)
	}
}

// tracedStores wraps a node's stores with timing decorators.
func (t *tracer) tracedStores(st store.Stores) store.Stores {
	st.Jobs = &tracedJobs{JobStore: st.Jobs, t: t}
	st.Results = &tracedResults{ResultStore: st.Results, t: t}
	return st
}

// tracedJobs times the JobStore calls on the request path.
type tracedJobs struct {
	store.JobStore
	t *tracer
	// keys maps a job number to its spec key, since SetState carries only
	// the number.
	keys sync.Map
}

func (j *tracedJobs) append(recs []store.JobRecord, call func() error) error {
	if len(recs) == 0 || !j.t.tracing(recs[0].Key) {
		return call()
	}
	start := time.Now()
	err := call()
	end := time.Now()
	j.t.add(span{Name: "store.job.append", Key: recs[0].Key}, start, end)
	for _, r := range recs {
		j.keys.Store(r.ID, r.Key)
		j.t.enqueued.Store(r.Key, end)
	}
	return err
}

func (j *tracedJobs) Enqueue(rec store.JobRecord) error {
	return j.append([]store.JobRecord{rec}, func() error { return j.JobStore.Enqueue(rec) })
}

func (j *tracedJobs) AppendBatch(recs []store.JobRecord) error {
	return j.append(recs, func() error { return j.JobStore.AppendBatch(recs) })
}

func (j *tracedJobs) SetState(id uint64, state, errMsg string) error {
	k, ok := j.keys.Load(id)
	if !ok || !j.t.tracing(k.(string)) {
		return j.JobStore.SetState(id, state, errMsg)
	}
	start := time.Now()
	err := j.JobStore.SetState(id, state, errMsg)
	j.t.add(span{Name: "store.job.set_state", Key: k.(string), Attr: state}, start, time.Now())
	return err
}

// tracedResults times the ResultStore calls on the request path.
type tracedResults struct {
	store.ResultStore
	t *tracer
}

func (r *tracedResults) Get(key string) ([]byte, bool) {
	if !r.t.tracing(key) {
		return r.ResultStore.Get(key)
	}
	start := time.Now()
	b, ok := r.ResultStore.Get(key)
	r.t.add(span{Name: "store.result.get", Key: key, Attr: hitAttr(ok)}, start, time.Now())
	return b, ok
}

func (r *tracedResults) Has(key string) bool {
	if !r.t.tracing(key) {
		return r.ResultStore.Has(key)
	}
	start := time.Now()
	ok := r.ResultStore.Has(key)
	r.t.add(span{Name: "store.result.has", Key: key, Attr: hitAttr(ok)}, start, time.Now())
	return ok
}

func (r *tracedResults) Put(key string, value []byte) error {
	if !r.t.tracing(key) {
		return r.ResultStore.Put(key, value)
	}
	start := time.Now()
	err := r.ResultStore.Put(key, value)
	r.t.add(span{Name: "store.result.put", Key: key}, start, time.Now())
	return err
}

func hitAttr(ok bool) string {
	if ok {
		return "hit"
	}
	return "miss"
}
