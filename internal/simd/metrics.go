package simd

import (
	"fmt"
	"io"
	"sort"

	"fvp/internal/store"
	"fvp/internal/telemetry"
)

// counters are the service-level counters, guarded by the Service mutex.
type counters struct {
	cacheHits   uint64
	cacheMisses uint64
	done        uint64
	failed      uint64
	canceled    uint64
	running     int
	simCycles   uint64
	simInsts    uint64
	simSeconds  float64
	// simSkippedCycles is the subset of simCycles the cores idle-elided
	// (clock-jumped); the ratio to simCycles shows how much of the fleet's
	// simulated time the fast path absorbed.
	simSkippedCycles uint64
	// simFFInsts counts functionally fast-forwarded instructions (warmup
	// and checkpoint scans) — work done outside the detailed model.
	simFFInsts uint64
	// simSampledInsts counts instructions measured in detail inside sample
	// units; the ratio to the sampled runs' total measured region is the
	// fleet's detailed sampling fraction.
	simSampledInsts uint64
}

// Stats is a point-in-time snapshot of the service counters; the JSON
// form mirrors the /metrics exposition names.
type Stats struct {
	JobsQueued       int         `json:"jobs_queued"`
	JobsRunning      int         `json:"jobs_running"`
	JobsDone         uint64      `json:"jobs_done"`
	JobsFailed       uint64      `json:"jobs_failed"`
	JobsCanceled     uint64      `json:"jobs_canceled"`
	CacheHits        uint64      `json:"cache_hits"`
	CacheMisses      uint64      `json:"cache_misses"`
	CacheEntries     int         `json:"cache_entries"`
	CacheBytes       int64       `json:"cache_bytes"`
	JobsRecovered    uint64      `json:"jobs_recovered"`
	StoreErrors      uint64      `json:"store_errors"`
	StoreJobs        store.Stats `json:"store_jobs"`
	StoreResults     store.Stats `json:"store_results"`
	StoreBlobs       store.Stats `json:"store_blobs"`
	SimCycles        uint64      `json:"sim_cycles"`
	SimInsts         uint64      `json:"sim_insts"`
	SimSeconds       float64     `json:"sim_seconds"`
	SimSkippedCycles uint64      `json:"sim_skipped_cycles"`
	SimFFInsts       uint64      `json:"sim_ff_insts"`
	SimSampledInsts  uint64      `json:"sim_sampled_insts"`
	// Tenants is per-tenant admission accounting; empty for a
	// pre-tenancy deployment (one anonymous unlimited tenant).
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
}

// CyclesPerSecond is the service's aggregate simulation throughput.
func (s Stats) CyclesPerSecond() float64 {
	if s.SimSeconds <= 0 {
		return 0
	}
	return float64(s.SimCycles) / s.SimSeconds
}

// WriteMetrics renders the Prometheus text exposition (version 0.0.4,
// with HELP/TYPE metadata) served at GET /v1/metrics.
func (s *Service) WriteMetrics(w io.Writer) {
	st := s.Snapshot()
	gauge := func(name, help string, format string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s "+format+"\n", name, help, name, name, v)
	}
	counter := func(name, help string, format string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s "+format+"\n", name, help, name, name, v)
	}
	gauge("fvpd_jobs_queued", "Unique runs waiting for a worker.", "%d", st.JobsQueued)
	gauge("fvpd_jobs_running", "Simulations currently executing.", "%d", st.JobsRunning)
	counter("fvpd_jobs_done_total", "Jobs that finished successfully.", "%d", st.JobsDone)
	counter("fvpd_jobs_failed_total", "Jobs that finished with an error.", "%d", st.JobsFailed)
	counter("fvpd_jobs_canceled_total", "Jobs canceled or timed out.", "%d", st.JobsCanceled)
	counter("fvpd_cache_hits_total", "Submits served from the result cache or deduplicated onto an in-flight run.", "%d", st.CacheHits)
	counter("fvpd_cache_misses_total", "Submits that required a fresh simulation.", "%d", st.CacheMisses)
	gauge("fvpd_cache_entries", "Results held in the content-addressed cache.", "%d", st.CacheEntries)
	gauge("fvpd_cache_bytes", "Bytes held in the content-addressed cache (spec keys + encoded results).", "%d", st.CacheBytes)

	stores := []struct {
		name string
		st   store.Stats
	}{{"jobs", st.StoreJobs}, {"results", st.StoreResults}, {"blobs", st.StoreBlobs}}
	labeled := func(name, help, typ string, v func(store.Stats) any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, s := range stores {
			fmt.Fprintf(w, "%s{store=%q} %d\n", name, s.name, v(s.st))
		}
	}
	labeled("fvpd_store_records", "Live records held by each backing store.", "gauge",
		func(s store.Stats) any { return s.Records })
	labeled("fvpd_store_bytes", "Bytes held by each backing store.", "gauge",
		func(s store.Stats) any { return s.Bytes })
	labeled("fvpd_store_appends_total", "Records appended to each backing store since boot.", "counter",
		func(s store.Stats) any { return s.Appends })
	labeled("fvpd_store_compactions_total", "Log compactions performed by each backing store since boot.", "counter",
		func(s store.Stats) any { return s.Compactions })
	counter("fvpd_store_recovered_jobs_total", "Jobs re-dispatched from the durable job store at boot.", "%d", st.JobsRecovered)
	counter("fvpd_store_errors_total", "Durable-store write failures absorbed after admission.", "%d", st.StoreErrors)

	counter("fvpd_sim_cycles_total", "Simulated cycles across all completed runs.", "%d", st.SimCycles)
	counter("fvpd_sim_skipped_cycles_total", "Simulated cycles covered by idle-elision clock jumps (subset of fvpd_sim_cycles_total).", "%d", st.SimSkippedCycles)
	counter("fvpd_sim_insts_total", "Simulated instructions across all completed runs.", "%d", st.SimInsts)
	counter("fvpd_sim_ff_insts_total", "Instructions functionally fast-forwarded (warmup and checkpoint scans) instead of detail-simulated.", "%d", st.SimFFInsts)
	counter("fvpd_sim_sampled_insts_total", "Instructions detail-simulated inside sample units of sampled runs.", "%d", st.SimSampledInsts)
	counter("fvpd_sim_seconds_total", "Wall-clock seconds spent simulating.", "%g", st.SimSeconds)
	gauge("fvpd_sim_cycles_per_second", "Aggregate simulation throughput.", "%g", st.CyclesPerSecond())

	// Per-tenant admission control. Family metadata is always present so
	// dashboards can be built before the first tenant shows up.
	tenantNames := make([]string, 0, len(st.Tenants))
	for name := range st.Tenants {
		tenantNames = append(tenantNames, name)
	}
	sort.Strings(tenantNames)
	fmt.Fprintf(w, "# HELP fvpd_tenant_rejected_total Submits refused by per-tenant admission control (HTTP 429).\n# TYPE fvpd_tenant_rejected_total counter\n")
	for _, name := range tenantNames {
		fmt.Fprintf(w, "fvpd_tenant_rejected_total{tenant=%q} %d\n", name, st.Tenants[name].Rejected)
	}
	fmt.Fprintf(w, "# HELP fvpd_tenant_inflight Non-terminal jobs (queued + running, including deduplicated followers) per tenant.\n# TYPE fvpd_tenant_inflight gauge\n")
	for _, name := range tenantNames {
		fmt.Fprintf(w, "fvpd_tenant_inflight{tenant=%q} %d\n", name, st.Tenants[name].Inflight)
	}

	reqHelp := "End-to-end request latency by route pattern and outcome (ok, client_error, server_error)."
	if s.cfg.SLOTarget > 0 {
		reqHelp += fmt.Sprintf(" SLO target: %s.", s.cfg.SLOTarget)
	}
	s.reqHist.WriteProm(w, "fvpd_request_seconds", reqHelp)
	if s.batch != nil {
		telemetry.WritePromHeader(w, "fvpd_batch_size",
			fmt.Sprintf("Requests coalesced per micro-batch flush (window %s, max %d).", s.cfg.BatchWindow, s.cfg.BatchMax))
		s.batchSizes.WriteProm(w, "fvpd_batch_size", "")
	}

	s.mu.Lock()
	extras := append([]func(io.Writer){}, s.metricsExtra...)
	s.mu.Unlock()
	for _, fn := range extras {
		fn(w)
	}
}
