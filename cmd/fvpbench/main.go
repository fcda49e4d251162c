// Command fvpbench runs a fixed core-performance benchmark matrix and
// writes BENCH_core.json, the repo's simulator-performance trajectory
// artifact. Its sections, in the order it runs them:
//
//  1. The steady-state OOO cycle loop on the functional generator (the
//     same measurement as BenchmarkCoreCycleLoop in bench_test.go):
//     simulated instructions per wall-clock second and heap allocations per
//     50k-instruction chunk, compared against the recorded
//     pre-event-driven-scheduler reference.
//  2. The same loop on an mcf-class DRAM-bound pointer chaser, once with
//     idle-cycle elision (the default) and once on the ticking path
//     (Config.DisableIdleElision), recording the elision speedup and the
//     skip_ratio — the fraction of simulated cycles covered by clock jumps.
//  3. A suite FVP-vs-baseline sweep: aggregate simulation throughput (sim
//     MIPS across all parallel runs) and the geomean IPC speedup — the
//     paper's headline metric — so a perf regression that also changes
//     results is visible in the same artifact. Each per-workload row
//     carries its skip_ratio.
//  4. Fast-forward: warmup-phase throughput detailed vs functional (floor
//     5x), and a paper-scale suite pass with each warmup mode (end-to-end
//     wall-clock ratio).
//  5. The region-parallel scaling curve: K=1,2,4,8 checkpointed regions on
//     K workers. A row with more workers than GOMAXPROCS is marked
//     unmeasurable and carries no speedup.
//  6. Statistical sampling: one paper-scale region measured in full detail
//     and again as a SMARTS-style sampled estimate (speedup floor 10x),
//     plus a sampled suite sweep whose sim MIPS credits the whole
//     estimated region.
//  7. The fvpd request plane: a flood of the real HTTP surface of a
//     disk-backed two-node cluster through the non-owner node, once
//     per-request and once with the edge micro-batcher and forward
//     coalescer on, recording sustained submits/sec and client-observed
//     p50/p99.
//
// Per-run set-up, the functional executor and the store backends are
// measured by the benchmark under bench/, per layer and with medians and
// spreads (prog.build_memory_ms, ooo.core_reset_ms, ooo.warm_caches_ms,
// prog.exec_ns_per_inst, store.result_put_us and the svc-cached workload).
//
// With -gate the fresh suite and service throughputs are compared against
// a recorded BENCH_core.json and the run exits nonzero on a >5% drop or a
// batched speedup under its floor — the CI perf-regression gate.
//
// Usage:
//
//	fvpbench                       # full matrix -> BENCH_core.json
//	fvpbench -quick                # 8-workload suite, fewer cycle-loop ops
//	fvpbench -quick -gate BENCH_core.json
//	fvpbench -out /tmp/bench.json
//	fvpbench -quick -cpuprofile fvpbench.pprof   # CI flamegraph artifact
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fvp"
	"fvp/internal/cluster"
	"fvp/internal/core"
	"fvp/internal/harness"
	"fvp/internal/ooo"
	"fvp/internal/prog"
	"fvp/internal/simd"
	"fvp/internal/store/disk"
	"fvp/internal/telemetry"
	"fvp/internal/vp"
	"fvp/internal/workload"
)

// cycleLoopInstsPerOp matches BenchmarkCoreCycleLoop so the numbers are
// directly comparable with `go test -bench=CoreCycleLoop`.
const cycleLoopInstsPerOp = 50_000

// memBound names the DRAM-bound cycle-loop workload and matches
// BenchmarkCoreCycleLoopMemBound (smaller chunks: mcf-class IPC is ~0.08,
// so 20k instructions is already ~250k simulated cycles).
const (
	memBoundWorkload   = "mcf-17"
	memBoundInstsPerOp = 20_000
)

// Fast-forward and region-scaling section parameters. The warmup window
// matches benchWarmInsts in harness/warmup_test.go; the paper-scale suite
// pass uses the DefaultOptions 100k/300k split the acceptance numbers are
// quoted at.
const (
	ffWorkload        = "omnetpp"
	ffWarmInsts       = 100_000
	regionWorkload    = "omnetpp"
	paperWarmInsts    = 100_000
	paperMeasureInsts = 300_000
)

// reference is the cycle-loop measurement recorded on the development host
// immediately before the event-driven scheduler landed (per-cycle full-window
// scans, no core reuse). Absolute inst/s is host-dependent; allocs/op is not,
// which is why both are recorded.
var reference = CycleLoop{
	Workload:    "omnetpp",
	InstsPerOp:  cycleLoopInstsPerOp,
	InstPerSec:  1_636_350,
	AllocsPerOp: 51_813,
	BytesPerOp:  14_460_000,
	Note:        "pre-event-driven scheduler (full-window scans), Xeon @ 2.10GHz",
}

// CycleLoop is the steady-state cycle-loop measurement. SkipRatio is the
// fraction of simulated cycles covered by idle-elision clock jumps during
// the timed region (0 on the ticking path).
type CycleLoop struct {
	Workload    string  `json:"workload"`
	InstsPerOp  uint64  `json:"insts_per_op"`
	Ops         int     `json:"ops,omitempty"`
	InstPerSec  float64 `json:"inst_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	SkipRatio   float64 `json:"skip_ratio"`
	Note        string  `json:"note,omitempty"`
}

// Suite is the full-sweep measurement. For a sampled sweep (SampleUnits
// set) SimMIPS credits the whole estimated region per run — the quantity
// sampling exists to buy — while only units×unit_insts of it ran in
// detail.
type Suite struct {
	Core            string            `json:"core"`
	Workloads       int               `json:"workloads"`
	WarmupInsts     uint64            `json:"warmup_insts"`
	MeasureInsts    uint64            `json:"measure_insts"`
	WarmupMode      string            `json:"warmup_mode,omitempty"`
	SampleUnits     int               `json:"sample_units,omitempty"`
	SampleUnitInsts uint64            `json:"sample_unit_insts,omitempty"`
	WallSeconds     float64           `json:"wall_seconds"`
	SimMIPS         float64           `json:"sim_mips"`
	GeomeanFVP      float64           `json:"geomean_fvp_speedup"`
	PerWorkload     []WorkloadSpeedup `json:"per_workload,omitempty"`
}

// SampledRun is the one-region full-detail-vs-sampled comparison: the same
// (warmup, measure) slice simulated both ways. IPCError is the sampled
// estimate's relative distance from the full-detail IPC; it should sit
// within IPCRelCI (the estimate's own 95% interval) — when it does, the
// speedup came at a statistically honest price.
type SampledRun struct {
	Workload           string  `json:"workload"`
	WarmupInsts        uint64  `json:"warmup_insts"`
	MeasureInsts       uint64  `json:"measure_insts"`
	Units              int     `json:"units"`
	UnitInsts          uint64  `json:"unit_insts"`
	FullWallSeconds    float64 `json:"full_wall_seconds"`
	SampledWallSeconds float64 `json:"sampled_wall_seconds"`
	Speedup            float64 `json:"speedup"`
	FullIPC            float64 `json:"full_ipc"`
	SampledIPC         float64 `json:"sampled_ipc"`
	IPCRelCI           float64 `json:"ipc_rel_ci"`
	IPCError           float64 `json:"ipc_error"`
}

// SamplingSection is the statistical-sampling part of the artifact.
type SamplingSection struct {
	SpeedupVsDetail SampledRun `json:"speedup_vs_detail"`
	Suite           Suite      `json:"suite"`
}

// FastForward is the warmup-phase throughput measurement: the same warmup
// window driven once through the detailed pipeline and once through the
// functional warming taps (ooo.Core.WarmFunctional), on a fresh core each
// way. The speedup floor for the fast-forward subsystem is 5x.
type FastForward struct {
	Workload             string  `json:"workload"`
	WarmupInsts          uint64  `json:"warmup_insts"`
	DetailedInstPerSec   float64 `json:"detailed_inst_per_sec"`
	FunctionalInstPerSec float64 `json:"functional_inst_per_sec"`
	Speedup              float64 `json:"speedup"`
}

// RegionRow is one point of the region-parallel scaling curve: the same
// (warmup, measure) slice split into K checkpointed regions simulated by K
// workers. IPC is the stitched aggregate — deterministic for a fixed K
// regardless of worker count, but not identical across K (each region
// re-warms from cold structures). A row whose workers exceed GOMAXPROCS is
// Unmeasurable: its workers time-share the host's CPUs, so its wall time
// says nothing about scaling and it carries no speedup.
type RegionRow struct {
	Regions      int     `json:"regions"`
	Workers      int     `json:"workers"`
	WallSeconds  float64 `json:"wall_seconds"`
	Speedup      float64 `json:"speedup_vs_k1,omitempty"`
	Unmeasurable bool    `json:"unmeasurable,omitempty"`
	IPC          float64 `json:"ipc"`
}

// ParallelRegions is the region-scaling section.
type ParallelRegions struct {
	Workload     string      `json:"workload"`
	WarmupInsts  uint64      `json:"warmup_insts"`
	MeasureInsts uint64      `json:"measure_insts"`
	Rows         []RegionRow `json:"rows"`
}

// WorkloadSpeedup is one row of the sweep. SkipRatio is taken from the FVP
// run: high values mark the memory-bound workloads where idle-cycle elision
// absorbs most of the simulated time.
type WorkloadSpeedup struct {
	Name      string  `json:"name"`
	BaseIPC   float64 `json:"base_ipc"`
	FVPIPC    float64 `json:"fvp_ipc"`
	Speedup   float64 `json:"speedup"`
	SkipRatio float64 `json:"skip_ratio"`
}

// Service-section parameters: the micro-batcher settings the batched
// flood runs under, recorded as service.batch_window and batch_max.
// BatchMax matches the client count so a full complement of parked
// submitters flushes immediately instead of waiting out the window.
const (
	svcBatchWindow = 2 * time.Millisecond
	svcBatchMax    = 16
	svcClients     = 16
	// svcSpeedupFloor is the gate's minimum batched/per-request
	// throughput ratio — the request-plane acceptance floor.
	svcSpeedupFloor = 2.0
)

// ServiceBench is one request-plane flood measurement: sustained submit
// throughput through the real HTTP surface of a disk-backed two-node
// cluster, entered at the non-owner, with client-observed latency
// quantiles.
type ServiceBench struct {
	Mode          string  `json:"mode"` // "per_request" | "batched"
	Clients       int     `json:"clients"`
	Requests      int     `json:"requests"`
	SubmitsPerSec float64 `json:"submits_per_sec"`
	P50Micros     float64 `json:"p50_us"`
	P99Micros     float64 `json:"p99_us"`
}

// ServiceSection compares the two request-plane modes on an identical
// sweep-shaped flood. BatchedSpeedup is the submits/sec ratio — the
// micro-batcher's amortization of per-hop HTTP forwards, admission, and
// fsync'd JobStore appends (acceptance floor 2x).
type ServiceSection struct {
	Backend        string       `json:"backend"`
	Topology       string       `json:"topology"`
	BatchWindow    string       `json:"batch_window"`
	BatchMax       int          `json:"batch_max"`
	PerRequest     ServiceBench `json:"per_request"`
	Batched        ServiceBench `json:"batched"`
	BatchedSpeedup float64      `json:"batched_speedup"`
}

// Report is the BENCH_core.json schema.
type Report struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`
	// GOMAXPROCS is the scheduler's worker-thread cap at measurement
	// time; with NumCPU it makes throughput comparable across hosts.
	GOMAXPROCS int `json:"gomaxprocs"`

	CycleLoop          CycleLoop `json:"core_cycle_loop"`
	Reference          CycleLoop `json:"reference"`
	SpeedupVsReference float64   `json:"speedup_vs_reference"`
	AllocsReduction    float64   `json:"allocs_reduction_factor"`

	// The mem-bound loop measured with elision on and again on the ticking
	// path; MemBoundElisionSpeedup is their inst/s ratio (acceptance floor
	// for the idle-elision fast path is 1.5x).
	CycleLoopMemBound        CycleLoop `json:"core_cycle_loop_mem_bound"`
	CycleLoopMemBoundTicking CycleLoop `json:"core_cycle_loop_mem_bound_ticking"`
	MemBoundElisionSpeedup   float64   `json:"mem_bound_elision_speedup"`

	// The warmup phase measured both ways (floor 5x), plus a paper-scale
	// (100k warmup / 300k measure) suite pass with each warmup mode;
	// SuiteWarmupSpeedup is their end-to-end wall-clock ratio.
	FastForward        FastForward `json:"fast_forward"`
	SuitePaper         Suite       `json:"suite_paper"`
	SuiteFunctional    Suite       `json:"suite_functional"`
	SuiteWarmupSpeedup float64     `json:"suite_warmup_speedup"`

	ParallelRegions ParallelRegions `json:"parallel_regions"`

	// Sampling is the statistical-sampling engine: the full-vs-sampled
	// speedup on one paper-scale region (floor 10x) and the sampled suite
	// sweep (two-digit sim MIPS).
	Sampling SamplingSection `json:"sampling"`

	// Service is the request-plane flood: per-request vs micro-batched
	// submit throughput through the HTTP surface.
	Service ServiceSection `json:"service"`

	Suite Suite `json:"suite"`
}

// swapHandler lets an httptest.Server exist (URL in hand) before the
// cluster node whose handler it will serve: peers reference each other
// by URL, so the servers must come up first.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// measureService floods the HTTP surface of a disk-backed two-node
// cluster with a sweep of unique specs, entered at the node that owns
// none of them, so every submit must cross one forward hop to its
// owner — the shape of a sweep fleet hitting its nearest node.
// Simulation workers are gated shut for the flood's duration, so the
// measurement isolates the sustained submit path: HTTP handling on both
// nodes, the forward hop, admission, and the owner's fsync'd JobStore
// append. batched toggles the edge micro-batcher and the forward
// coalescer; everything else is identical, so the throughput ratio is
// the batcher's contribution — one forwarded /v1 call and one fsync'd
// append per flush instead of one per request.
func measureService(batched bool, clients, requests int) ServiceBench {
	sb := ServiceBench{Mode: "per_request", Clients: clients, Requests: requests}
	if batched {
		sb.Mode = "batched"
	}
	dir, err := os.MkdirTemp("", "fvpbench-svc-*")
	if err != nil {
		fatalf("service: %v", err)
	}
	defer os.RemoveAll(dir)

	gate := make(chan struct{})
	ids := []string{"a", "b"}
	peers := make(map[string]string, len(ids))
	shs := make([]*swapHandler, len(ids))
	srvs := make([]*httptest.Server, len(ids))
	for i := range ids {
		shs[i] = &swapHandler{}
		srvs[i] = httptest.NewServer(shs[i])
		defer srvs[i].Close()
		peers[ids[i]] = srvs[i].URL
	}
	nodes := make([]*cluster.Node, len(ids))
	for i, id := range ids {
		stores, err := disk.Open(filepath.Join(dir, id), disk.Options{CacheEntries: requests + 16})
		if err != nil {
			fatalf("service: %v", err)
		}
		cfg := simd.Config{
			Workers: 1, QueueSize: requests + 16, Stores: stores, NodeID: id,
			Run: func(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error) {
				select {
				case <-gate:
				case <-ctx.Done():
				}
				return fvp.Metrics{IPC: 1, Cycles: 1, Insts: 1}, nil
			},
		}
		ccfg := cluster.Config{Service: nil, Self: id, Peers: peers}
		if batched {
			cfg.BatchWindow, cfg.BatchMax = svcBatchWindow, svcBatchMax
		}
		svc := simd.New(cfg)
		defer svc.Close()
		ccfg.Service = svc
		node, err := cluster.New(ccfg)
		if err != nil {
			fatalf("service: cluster: %v", err)
		}
		nodes[i] = node
		shs[i].set(node.Handler())
	}
	// The flood enters at node a, so every spec must hash to node b:
	// scan measure_insts values until enough b-owned points are found.
	insts := make([]int64, 0, requests)
	for v := int64(1_000_000); len(insts) < requests; v++ {
		spec := fvp.RunSpec{Workload: "omnetpp", Predictor: fvp.PredFVP, WarmupInsts: 100, MeasureInsts: uint64(v)}
		if nodes[0].Owner(simd.SpecKey(spec)) == "b" {
			insts = append(insts, v)
		}
	}

	// Keep-alive pool sized to the client count so connection churn on
	// the client hop doesn't mask the hop being measured.
	tr := &http.Transport{MaxIdleConnsPerHost: clients}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}

	hist := telemetry.NewLatency()
	var seq, failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := seq.Add(1) - 1
				if i >= int64(requests) {
					return
				}
				body := fmt.Sprintf(
					`{"workload":"omnetpp","predictor":"fvp","warmup_insts":100,"measure_insts":%d}`,
					insts[i])
				t0 := time.Now()
				resp, err := hc.Post(srvs[0].URL+"/v1/runs", "application/json", strings.NewReader(body))
				if err != nil {
					failed.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				hist.Observe(time.Since(t0).Seconds())
				if resp.StatusCode >= 300 {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	close(gate) // release the queued jobs before the deferred Closes
	if n := failed.Load(); n > 0 {
		fatalf("service %s: %d of %d submits failed", sb.Mode, n, requests)
	}
	snap := hist.Snapshot()
	sb.SubmitsPerSec = float64(requests) / wall
	sb.P50Micros = snap.Quantile(0.50) * 1e6
	sb.P99Micros = snap.Quantile(0.99) * 1e6
	return sb
}

// measureCycleLoop reproduces BenchmarkCoreCycleLoop outside the testing
// package: one core built and warmed outside the timed region, each op
// advancing the same simulation by another chunk of retired instructions
// from the functional generator. disableElide forces the per-cycle ticking
// path (the two paths produce bit-identical RunStats; see
// internal/ooo/elide.go).
func measureCycleLoop(wlName string, instsPerOp uint64, ops int, disableElide bool) CycleLoop {
	w, ok := workload.ByName(wlName)
	if !ok {
		fatalf("workload %q not found", wlName)
	}
	p := w.Build()
	ex := prog.NewExec(p)
	cfg := ooo.Skylake()
	cfg.DisableIdleElision = disableElide
	c := ooo.New(cfg, core.New(core.DefaultConfig()), ex, ex.Checkpoint().Memory())
	c.WarmCaches(p.WarmRanges)
	st0 := c.Run(instsPerOp) // reach steady state before timing
	st1 := st0

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < ops; i++ {
		st1 = c.Run(uint64(i+2) * instsPerOp)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)

	n := float64(ops)
	cl := CycleLoop{
		Workload:    wlName,
		InstsPerOp:  instsPerOp,
		Ops:         ops,
		InstPerSec:  float64(instsPerOp) * n / elapsed.Seconds(),
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / n,
		BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / n,
	}
	if dc := st1.Cycles - st0.Cycles; dc > 0 {
		cl.SkipRatio = float64(st1.SkippedCycles-st0.SkippedCycles) / float64(dc)
	}
	return cl
}

// measureFastForward times the warmup window once on the detailed pipeline
// and once on the functional warming taps, each from a freshly reset core.
// It mirrors BenchmarkWarmupFunctional / BenchmarkWarmupDetailed exactly
// (same workload, window and vp.None predictor) so the artifact and the
// named benchmarks report the same quantity.
func measureFastForward(wlName string, warmInsts uint64, ops int) FastForward {
	w, ok := workload.ByName(wlName)
	if !ok {
		fatalf("workload %q not found", wlName)
	}
	p := w.Build()
	ex := prog.NewExec(p)
	c := ooo.New(ooo.Skylake(), vp.None{}, ex, ex.Checkpoint().Memory())

	time1 := func(warm func(*ooo.Core)) float64 {
		var total time.Duration
		for i := 0; i < ops; i++ {
			ex := prog.NewExec(p)
			c.Reset(vp.None{}, ex, ex.Checkpoint().Memory())
			start := time.Now()
			warm(c)
			total += time.Since(start)
		}
		return float64(warmInsts) * float64(ops) / total.Seconds()
	}
	ff := FastForward{
		Workload:             wlName,
		WarmupInsts:          warmInsts,
		DetailedInstPerSec:   time1(func(c *ooo.Core) { c.Run(warmInsts) }),
		FunctionalInstPerSec: time1(func(c *ooo.Core) { c.WarmFunctional(warmInsts) }),
	}
	ff.Speedup = ff.FunctionalInstPerSec / ff.DetailedInstPerSec
	return ff
}

// runOne simulates w with FVP on Skylake, exiting on error so a failed
// run is never recorded as a zero row.
func runOne(w workload.Workload, opt harness.Options) harness.Result {
	r, err := harness.RunOneCtx(context.Background(), w, ooo.Skylake(), harness.Factory(harness.SpecFVP), opt)
	if err != nil {
		fatalf("%s: %v", w.Name, err)
	}
	return r
}

// measureParallelRegions runs one long (warmup, measure) slice split into
// K functionally-warmed regions simulated by K workers, for K = 1,2,4,8.
func measureParallelRegions(wlName string, warm, measure uint64) ParallelRegions {
	w, ok := workload.ByName(wlName)
	if !ok {
		fatalf("workload %q not found", wlName)
	}
	pr := ParallelRegions{Workload: wlName, WarmupInsts: warm, MeasureInsts: measure}
	for _, k := range []int{1, 2, 4, 8} {
		opt := harness.Options{
			WarmupInsts: warm, MeasureInsts: measure,
			WarmupMode: harness.WarmupFunctional,
		}
		if k > 1 {
			opt.Regions = k
			opt.RegionWorkers = k
		}
		start := time.Now()
		res := runOne(w, opt)
		row := RegionRow{
			Regions:     k,
			Workers:     k,
			WallSeconds: time.Since(start).Seconds(),
			IPC:         res.IPC,
		}
		switch {
		case k > runtime.GOMAXPROCS(0):
			row.Unmeasurable = true
		case len(pr.Rows) > 0:
			row.Speedup = pr.Rows[0].WallSeconds / row.WallSeconds
		default:
			row.Speedup = 1
		}
		pr.Rows = append(pr.Rows, row)
	}
	return pr
}

// measureSampledRun times one paper-scale region in full detail and again
// as a sampled estimate of the same region.
func measureSampledRun(wlName string, warm, measure uint64, units int, unitInsts uint64) SampledRun {
	w, ok := workload.ByName(wlName)
	if !ok {
		fatalf("workload %q not found", wlName)
	}
	opt := harness.Options{WarmupInsts: warm, MeasureInsts: measure}
	start := time.Now()
	full := runOne(w, opt)
	fullWall := time.Since(start).Seconds()

	opt.Sampling = harness.Sampling{Units: units, UnitInsts: unitInsts, Seed: 1}
	start = time.Now()
	sampled := runOne(w, opt)
	sampledWall := time.Since(start).Seconds()

	sr := SampledRun{
		Workload:           wlName,
		WarmupInsts:        warm,
		MeasureInsts:       measure,
		Units:              units,
		UnitInsts:          unitInsts,
		FullWallSeconds:    fullWall,
		SampledWallSeconds: sampledWall,
		Speedup:            fullWall / sampledWall,
		FullIPC:            full.IPC,
		SampledIPC:         sampled.IPC,
		IPCRelCI:           sampled.Sampling.IPC.RelCI,
	}
	if full.IPC > 0 {
		sr.IPCError = (sampled.IPC - full.IPC) / full.IPC
	}
	return sr
}

// measureSuite sweeps FVP vs baseline over ws and reports aggregate
// simulation throughput plus the paper's geomean speedup.
func measureSuite(ws []workload.Workload, opt harness.Options, perWorkload bool) Suite {
	start := time.Now()
	pairs, err := harness.RunComparisonCtx(context.Background(), ws, ooo.Skylake(), harness.Factory(harness.SpecFVP), opt)
	if err != nil {
		fatalf("suite: %v", err)
	}
	wall := time.Since(start).Seconds()

	// Two runs (baseline + FVP) per workload, each warmup+measure long.
	simInsts := float64(2*len(ws)) * float64(opt.WarmupInsts+opt.MeasureInsts)
	s := Suite{
		Core:            "Skylake",
		Workloads:       len(ws),
		WarmupInsts:     opt.WarmupInsts,
		MeasureInsts:    opt.MeasureInsts,
		WarmupMode:      string(opt.WarmupMode),
		SampleUnits:     opt.Sampling.Units,
		SampleUnitInsts: opt.Sampling.UnitInsts,
		WallSeconds:     wall,
		SimMIPS:         simInsts / wall / 1e6,
		GeomeanFVP:      harness.Geomean(pairs),
	}
	if !perWorkload {
		return s
	}
	for _, p := range pairs {
		row := WorkloadSpeedup{
			Name:    p.Base.Workload,
			BaseIPC: p.Base.IPC,
			FVPIPC:  p.Pred.IPC,
			Speedup: p.Speedup(),
		}
		if p.Pred.Stats.Cycles > 0 {
			row.SkipRatio = float64(p.Pred.Stats.SkippedCycles) / float64(p.Pred.Stats.Cycles)
		}
		s.PerWorkload = append(s.PerWorkload, row)
	}
	return s
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fvpbench: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		out        = flag.String("out", "BENCH_core.json", "output path")
		ops        = flag.Int("ops", 20, "cycle-loop measurement chunks")
		quick      = flag.Bool("quick", false, "8-workload suite and fewer chunks")
		gate       = flag.String("gate", "", "compare against this recorded BENCH_core.json and exit nonzero on a >5% sim MIPS drop")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	ws := workload.All()
	opt := harness.Options{WarmupInsts: 20_000, MeasureInsts: 60_000}
	if *quick {
		ws = ws[:8]
		*ops = 8
	}

	fmt.Printf("fvpbench: cycle loop (%d ops x %d insts on %s)...\n",
		*ops, cycleLoopInstsPerOp, reference.Workload)
	cl := measureCycleLoop(reference.Workload, cycleLoopInstsPerOp, *ops, false)
	fmt.Printf("  %.0f inst/s, %.1f allocs/op, %.0f B/op, skip ratio %.3f\n",
		cl.InstPerSec, cl.AllocsPerOp, cl.BytesPerOp, cl.SkipRatio)

	fmt.Printf("fvpbench: mem-bound cycle loop (%d ops x %d insts on %s, elided vs ticking)...\n",
		*ops, memBoundInstsPerOp, memBoundWorkload)
	mb := measureCycleLoop(memBoundWorkload, memBoundInstsPerOp, *ops, false)
	mbTick := measureCycleLoop(memBoundWorkload, memBoundInstsPerOp, *ops, true)
	mbTick.Note = "ticking path (Config.DisableIdleElision)"
	elisionSpeedup := mb.InstPerSec / mbTick.InstPerSec
	fmt.Printf("  elided %.0f inst/s (skip ratio %.3f) vs ticking %.0f inst/s: %.2fx\n",
		mb.InstPerSec, mb.SkipRatio, mbTick.InstPerSec, elisionSpeedup)

	fmt.Printf("fvpbench: suite sweep (%d workloads x {baseline, FVP})...\n", len(ws))
	suite := measureSuite(ws, opt, true)
	fmt.Printf("  %.2f sim MIPS aggregate, geomean FVP speedup %.4f, %.1fs wall\n",
		suite.SimMIPS, suite.GeomeanFVP, suite.WallSeconds)

	fmt.Printf("fvpbench: fast-forward warmup (%s, %d insts, detailed vs functional)...\n",
		ffWorkload, ffWarmInsts)
	ff := measureFastForward(ffWorkload, ffWarmInsts, max(*ops/4, 2))
	fmt.Printf("  detailed %.0f inst/s vs functional %.0f inst/s: %.2fx\n",
		ff.DetailedInstPerSec, ff.FunctionalInstPerSec, ff.Speedup)

	paperOpt := opt
	paperOpt.WarmupInsts, paperOpt.MeasureInsts = paperWarmInsts, paperMeasureInsts
	if *quick {
		paperOpt.WarmupInsts, paperOpt.MeasureInsts = paperWarmInsts/4, paperMeasureInsts/4
	}
	fmt.Printf("fvpbench: paper-scale suite (%d/%d), detailed vs functional warmup...\n",
		paperOpt.WarmupInsts, paperOpt.MeasureInsts)
	suitePaper := measureSuite(ws, paperOpt, false)
	funOpt := paperOpt
	funOpt.WarmupMode = harness.WarmupFunctional
	suiteFun := measureSuite(ws, funOpt, false)
	suiteSpeedup := suitePaper.WallSeconds / suiteFun.WallSeconds
	fmt.Printf("  detailed %.1fs vs functional %.1fs wall: %.2fx\n",
		suitePaper.WallSeconds, suiteFun.WallSeconds, suiteSpeedup)

	regWarm, regMeasure := uint64(50_000), uint64(800_000)
	if *quick {
		regWarm, regMeasure = 20_000, 200_000
	}
	fmt.Printf("fvpbench: parallel regions (%s, %d/%d, K=1,2,4,8)...\n",
		regionWorkload, regWarm, regMeasure)
	regions := measureParallelRegions(regionWorkload, regWarm, regMeasure)
	for _, r := range regions.Rows {
		if r.Unmeasurable {
			fmt.Printf("  K=%d: unmeasurable (%d workers > GOMAXPROCS %d), stitched IPC %.4f\n",
				r.Regions, r.Workers, runtime.GOMAXPROCS(0), r.IPC)
			continue
		}
		fmt.Printf("  K=%d: %.2fs wall (%.2fx), stitched IPC %.4f\n",
			r.Regions, r.WallSeconds, r.Speedup, r.IPC)
	}

	// Sampling section. The speedup row keeps its paper-scale region even
	// in quick mode: the 10x floor only exists when the measured region
	// dwarfs the fixed per-unit warmup cost, so shrinking it would measure
	// nothing. The sampled suite shrinks like the other suite passes.
	sampWarm, sampMeasure := uint64(100_000), uint64(100_000_000)
	suiteSampMeasure := uint64(20_000_000)
	if *quick {
		suiteSampMeasure = 4_000_000
	}
	fmt.Printf("fvpbench: sampled vs full detail (%s, %d insts)...\n", ffWorkload, sampMeasure)
	sampRun := measureSampledRun(ffWorkload, sampWarm, sampMeasure, 16, 2_000)
	fmt.Printf("  full %.1fs vs sampled %.1fs: %.1fx, IPC %.4f vs %.4f ±%.1f%% (err %+.1f%%)\n",
		sampRun.FullWallSeconds, sampRun.SampledWallSeconds, sampRun.Speedup,
		sampRun.FullIPC, sampRun.SampledIPC, sampRun.IPCRelCI*100, sampRun.IPCError*100)

	sampOpt := opt
	sampOpt.WarmupInsts, sampOpt.MeasureInsts = sampWarm, suiteSampMeasure
	sampOpt.Sampling = harness.Sampling{Units: 16, UnitInsts: 2_000, Seed: 1}
	fmt.Printf("fvpbench: sampled suite sweep (%d workloads x {baseline, FVP}, %d insts each)...\n",
		len(ws), suiteSampMeasure)
	suiteSampled := measureSuite(ws, sampOpt, false)
	fmt.Printf("  %.2f sim MIPS aggregate, geomean FVP speedup %.4f, %.1fs wall\n",
		suiteSampled.SimMIPS, suiteSampled.GeomeanFVP, suiteSampled.WallSeconds)

	svcRequests := 2048
	if *quick {
		svcRequests = 512
	}
	fmt.Printf("fvpbench: service flood (2-node cluster, %d clients x %d submits via non-owner, per-request vs batched)...\n",
		svcClients, svcRequests)
	svcSection := ServiceSection{
		Backend:     "disk",
		Topology:    "2-node cluster, flood via non-owner",
		BatchWindow: svcBatchWindow.String(),
		BatchMax:    svcBatchMax,
		PerRequest:  measureService(false, svcClients, svcRequests),
		Batched:     measureService(true, svcClients, svcRequests),
	}
	if svcSection.PerRequest.SubmitsPerSec > 0 {
		svcSection.BatchedSpeedup = svcSection.Batched.SubmitsPerSec / svcSection.PerRequest.SubmitsPerSec
	}
	fmt.Printf("  per-request %.0f submits/s (p50 %.0fµs p99 %.0fµs) vs batched %.0f submits/s (p50 %.0fµs p99 %.0fµs): %.2fx\n",
		svcSection.PerRequest.SubmitsPerSec, svcSection.PerRequest.P50Micros, svcSection.PerRequest.P99Micros,
		svcSection.Batched.SubmitsPerSec, svcSection.Batched.P50Micros, svcSection.Batched.P99Micros,
		svcSection.BatchedSpeedup)

	rep := Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),

		CycleLoop:          cl,
		Reference:          reference,
		SpeedupVsReference: cl.InstPerSec / reference.InstPerSec,
		AllocsReduction:    reference.AllocsPerOp / max(cl.AllocsPerOp, 1),

		CycleLoopMemBound:        mb,
		CycleLoopMemBoundTicking: mbTick,
		MemBoundElisionSpeedup:   elisionSpeedup,

		FastForward:        ff,
		SuitePaper:         suitePaper,
		SuiteFunctional:    suiteFun,
		SuiteWarmupSpeedup: suiteSpeedup,
		ParallelRegions:    regions,
		Sampling:           SamplingSection{SpeedupVsDetail: sampRun, Suite: suiteSampled},
		Service:            svcSection,

		Suite: suite,
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("marshal: %v", err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatalf("write %s: %v", *out, err)
	}
	fmt.Printf("fvpbench: wrote %s (%.2fx vs pre-scheduler reference, allocs %.0fx lower)\n",
		*out, rep.SpeedupVsReference, rep.AllocsReduction)

	if *gate != "" {
		if err := checkGate(*gate, rep); err != nil {
			fatalf("gate: %v", err)
		}
	}
}

// gateDropTolerance is how far a throughput number may fall below the
// recorded baseline before -gate fails the run.
const gateDropTolerance = 0.05

// checkGate compares the fresh measurement's suite throughputs against a
// recorded artifact. Only ratios of like measurements are gated (both
// sides must use the same mode — the checked-in baseline is regenerated by
// the same CI recipe that gates against it), and only a drop beyond the
// tolerance fails; a baseline without a section (older schema) skips that
// comparison.
func checkGate(path string, rep Report) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse %s: %v", path, err)
	}
	checks := []struct {
		name     string
		got, ref float64
	}{
		{"suite.sim_mips", rep.Suite.SimMIPS, base.Suite.SimMIPS},
		{"suite_functional.sim_mips", rep.SuiteFunctional.SimMIPS, base.SuiteFunctional.SimMIPS},
		{"sampling.suite.sim_mips", rep.Sampling.Suite.SimMIPS, base.Sampling.Suite.SimMIPS},
		{"service.batched.submits_per_sec", rep.Service.Batched.SubmitsPerSec, base.Service.Batched.SubmitsPerSec},
	}
	failed := false
	for _, c := range checks {
		if c.ref <= 0 {
			fmt.Printf("fvpbench: gate %-26s skipped (not in baseline)\n", c.name)
			continue
		}
		ratio := c.got / c.ref
		status := "ok"
		if ratio < 1-gateDropTolerance {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("fvpbench: gate %-26s %8.2f vs baseline %8.2f (%+.1f%%) %s\n",
			c.name, c.got, c.ref, (ratio-1)*100, status)
	}
	// The batched/per-request ratio is held to an absolute floor rather
	// than a baseline delta: unlike raw submits/sec it is
	// machine-independent (both arms pay the same HTTP and fsync costs),
	// so a drop below the floor means the micro-batcher itself regressed.
	if base.Service.BatchedSpeedup > 0 {
		status := "ok"
		if rep.Service.BatchedSpeedup < svcSpeedupFloor {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("fvpbench: gate %-26s %8.2fx vs floor %8.2fx %s\n",
			"service.batched_speedup", rep.Service.BatchedSpeedup, svcSpeedupFloor, status)
	}
	if failed {
		return fmt.Errorf("benchmark gate failed against %s", path)
	}
	return nil
}
