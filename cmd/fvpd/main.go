// Command fvpd serves the FVP simulator as a batch-simulation service:
// an HTTP/JSON API over a bounded job queue, a worker pool, and a
// content-addressed result cache with single-flight deduplication, so
// design-space sweeps from many clients share one simulation per unique
// (workload, machine, predictor, run-length, sampling-plan) point.
// Sampled runs — specs carrying sample_units or sample_target_ci — are
// first-class: the sampling plan is part of the cache key (a sampled
// estimate never masquerades as a full-detail result), the returned
// metrics carry the confidence intervals, and the detailed fraction of
// the fleet's sampled work is exported as fvpd_sim_sampled_insts_total.
//
// Usage:
//
//	fvpd -addr :8080 -workers 8 -queue 64 -cache 4096
//	fvpd -data-dir /var/lib/fvpd    # durable: jobs and cache survive restarts
//	fvpd -node-id a -peers "a=http://a:8080,b=http://b:8080" \
//	    -tenant-quota "ci=5:64:3,sweep=20:200"    # 2-node cluster, quotas
//
// With -data-dir the job queue, result cache, and trace artifacts live in
// crash-safe file stores under the directory: jobs that were queued or
// running when the process died are re-dispatched on the next boot, and
// cached results keep serving hits across restarts. Without it everything
// is in-memory, exactly as before.
//
// With -peers (the same static "id=url,..." list on every node, -node-id
// naming this one) the nodes form a coordinator-free cluster: specs are
// consistent-hashed to an owner node so dedup and caching shard with the
// content address, non-owners forward over the ordinary /v1 API, and an
// unreachable owner degrades to local execution behind a circuit breaker
// (GET /v1/cluster shows per-peer health). -tenant-quota /
// -tenant-default-quota attach per-tenant token buckets and weighted
// fair queueing, turning over-quota submits into per-tenant
// 429+Retry-After instead of the global 503.
//
// Endpoints: POST /v1/runs (single or batch, ?wait=1 to block),
// GET /v1/runs/{id} (status, result, and live progress),
// DELETE /v1/runs/{id}, GET /v1/workloads, GET /v1/predictors,
// GET /v1/cluster (ring membership and peer health),
// GET /v1/metrics (Prometheus text), GET /healthz. With -pprof the Go
// profiling handlers are additionally served under /debug/pprof/.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fvp/internal/cluster"
	"fvp/internal/simd"
	"fvp/internal/store/disk"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 0, "simulation workers (0 = NumCPU)")
		queue      = flag.Int("queue", 0, "run-queue capacity (0 = 4×workers)")
		cache      = flag.Int("cache", 0, "result-cache entries (0 = 1024)")
		cacheBytes = flag.Int64("cache-bytes", 0, "result-cache byte budget (0 = entries-only)")
		dataDir    = flag.String("data-dir", "", "durable store directory (empty = in-memory only)")
		drain      = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
		pprofOn    = flag.Bool("pprof", false, "serve Go profiling handlers under /debug/pprof/")
		nodeID     = flag.String("node-id", "", "this node's cluster ID (required with -peers)")
		peersFlag  = flag.String("peers", "", "cluster members as id=url,... (all nodes, this one included)")
		tenantQ    = flag.String("tenant-quota", "", "per-tenant quotas as tenant=rate[:burst[:weight]],...")
		tenantDefQ = flag.String("tenant-default-quota", "", "quota for tenants not named in -tenant-quota, as rate[:burst[:weight]]")
		batchWin   = flag.Duration("batch-window", 0, "micro-batch window: coalesce concurrent submits (and cluster forwards) arriving within this window into one admission/store/forward transaction (0 = off)")
		batchMax   = flag.Int("batch-max", 0, "max requests coalesced per micro-batch; a full window flushes early (0 = 256)")
		replicas   = flag.Int("replicas", 0, "push hot results to this many ring successors and serve replicated keys locally on non-owners (with -peers; 0 = off)")
		replAfter  = flag.Int("replicate-after", 0, "submits an owner must see for a key before replicating its result (0 = 3)")
		sloTarget  = flag.Duration("slo-target", 0, "latency SLO target annotated on the fvpd_request_seconds HELP text (0 = none)")
	)
	flag.Parse()

	fatalf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "fvpd: "+format+"\n", args...)
		os.Exit(1)
	}
	peers, err := cluster.ParsePeers(*peersFlag)
	if err != nil {
		fatalf("%v", err)
	}
	tenants := simd.TenantConfig{}
	if *tenantQ != "" {
		if tenants.Quotas, err = simd.ParseTenantQuotas(*tenantQ); err != nil {
			fatalf("%v", err)
		}
	}
	if *tenantDefQ != "" {
		q, err := simd.ParseQuotaSpec(*tenantDefQ)
		if err != nil {
			fatalf("%v", err)
		}
		tenants.Default = &q
	}

	cfg := simd.Config{
		Workers: *workers, QueueSize: *queue, CacheSize: *cache, CacheBytes: *cacheBytes,
		NodeID: *nodeID, Tenants: tenants,
		BatchWindow: *batchWin, BatchMax: *batchMax, SLOTarget: *sloTarget,
	}
	if *dataDir != "" {
		entries := *cache
		if entries <= 0 {
			entries = simd.DefaultCacheSize
		}
		stores, err := disk.Open(*dataDir, disk.Options{CacheEntries: entries, CacheBytes: *cacheBytes})
		if err != nil {
			fmt.Fprintln(os.Stderr, "fvpd: opening data dir:", err)
			os.Exit(1)
		}
		cfg.Stores = stores
	}
	svc := simd.New(cfg)
	if *dataDir != "" {
		if n := svc.Snapshot().JobsRecovered; n > 0 {
			fmt.Fprintf(os.Stderr, "fvpd: re-dispatched %d jobs recovered from %s\n", n, *dataDir)
		}
	}
	node, err := cluster.New(cluster.Config{
		Service: svc, Self: *nodeID, Peers: peers,
		Replicas: *replicas, ReplicateAfter: *replAfter,
	})
	if err != nil {
		svc.Close()
		fatalf("%v", err)
	}
	handler := node.Handler()
	if len(peers) > 1 {
		fmt.Fprintf(os.Stderr, "fvpd: cluster mode, node %q of %d peers\n", *nodeID, len(peers))
	}
	if *pprofOn {
		// Profiling is opt-in: the handlers expose goroutine dumps and CPU
		// profiles, which don't belong on an unattended public port.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	srv := &http.Server{Addr: *addr, Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "fvpd: listening on %s (%d workers)\n", *addr, svc.Workers())

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "fvpd:", err)
		svc.Close()
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting connections, then drain queued
	// and in-flight simulations; past the budget they are canceled via
	// their contexts and finish in the canceled state.
	fmt.Fprintln(os.Stderr, "fvpd: shutting down, draining jobs...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "fvpd: http shutdown:", err)
	}
	if err := svc.Drain(shutdownCtx); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "fvpd: drain:", err)
	}
	fmt.Fprintln(os.Stderr, "fvpd: bye")
}
