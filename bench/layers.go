package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// shareLayer maps a span name to the per-layer share metric its self time
// counts toward. Every span below an op maps to exactly one, so the
// shares of a workload sum to about 1.
var shareLayer = map[string]string{
	"op":                  "client.share",
	"http.handler":        "http.handler_share",
	"http.owner":          "cluster.owner_handler_share",
	"store.job.append":    "store.job_share",
	"store.job.set_state": "store.job_share",
	"store.result.get":    "store.result_share",
	"store.result.has":    "store.result_share",
	"store.result.put":    "store.result_share",
	"simd.queue_wait":     "simd.queue_wait_share",
	"harness.run":         "harness.self_share",
	"workload.build":      "workload.build_share",
	"prog.new_exec":       "prog.build_memory_share",
	"prog.build_memory":   "prog.build_memory_share",
	"ooo.core_reset":      "ooo.core_reset_share",
	"ooo.warm_caches":     "ooo.warm_caches_share",
	"ooo.run_warmup":      "ooo.warmup_share",
	"ooo.run_measure":     "ooo.measure_share",
	"prog.scan":           "prog.scan_share",
	"prog.checkpoint":     "prog.scan_share",
	"prog.restore":        "prog.restore_share",
	"ooo.warm_functional": "ooo.warm_functional_share",
}

// containers are the request-level spans an unparented span with the same
// key may belong to.
var containers = map[string]bool{"op": true, "http.handler": true, "http.owner": true, "simd.queue_wait": true}

// traceStretches is how many stretches a traced run's timed phase
// alternates between untraced and traced, starting untraced, so that
// drift in the host's speed falls on both alike.
const traceStretches = 4

// tracedOps is about how many ops a traced run traces: a workload of many
// short ops traces one in several, so its spans stay small.
const tracedOps = 5_000

// runTraced measures the per-layer metrics of a set-up system: it drives
// sys in traceStretches stretches, tracing every other one, and writes
// the spans, the layer metrics and a CPU profile under o.traceDir.
func runTraced(ctx context.Context, w *benchWorkload, o runOptions, sys *system, tr *tracer, stretch func(time.Duration) *opStats, out io.Writer) (runResult, error) {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return runResult{}, err
	}
	prof, err := os.Create(filepath.Join(o.traceDir, w.name+".cpu.pprof"))
	if err != nil {
		return runResult{}, err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return runResult{}, err
	}
	run := traceRun{untraced: &opStats{}, traced: &opStats{}, procs: runtime.GOMAXPROCS(0)}
	tr.all.Store(false)
	tr.timed.Store(true)
	for i := 0; i < traceStretches; i++ {
		tr.off.Store(i%2 == 0)
		if i%2 == 1 {
			run.traced.merge(stretch(o.dur / traceStretches))
			continue
		}
		rt0, appends0 := readRuntime(), sys.appends()
		run.untraced.merge(stretch(o.dur / traceStretches))
		run.rt.add(rt0, readRuntime())
		run.appends += sys.appends() - appends0
		if i == 0 {
			run.every = max(1, run.untraced.attempted*traceStretches/2/tracedOps)
			tr.every.Store(int64(run.every))
		}
	}
	tr.off.Store(true)
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return runResult{}, err
	}
	if err := ctx.Err(); err != nil {
		return runResult{}, err
	}
	run.spans = tr.snapshot()
	rep := layerMetrics(w.name, run)

	both := &opStats{}
	both.merge(run.untraced)
	both.merge(run.traced)
	res := summarize(both)
	for _, d := range perLayer {
		res.Metrics[d.Name] = metric{rep.Metrics[d.Name], d.Unit}
	}
	printMetrics(out, w.name, perLayer, res.Metrics)
	names := make([]string, 0, len(rep.Extra))
	for k := range rep.Extra {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "%s %s %.6g\n", w.name, k, rep.Extra[k])
	}
	printErrors(out, w.name, both)
	if err := writeJSON(filepath.Join(o.traceDir, w.name+".spans.json"), run.spans); err != nil {
		return runResult{}, err
	}
	if err := writeJSON(filepath.Join(o.traceDir, w.name+".layers.json"), rep); err != nil {
		return runResult{}, err
	}
	return res, nil
}

// traceRun is what a traced run measured.
type traceRun struct {
	spans []span
	// untraced and traced sum the untraced and the traced stretches.
	untraced, traced *opStats
	// every is the share of ops traced in traced stretches: one in every.
	every int
	// appends and rt cover the untraced stretches, so that they count
	// the program's own work and not the tracer's.
	appends uint64
	rt      runtimeDelta
	procs   int
}

// runtimeDelta sums Go runtime counters over stretches of a run.
type runtimeDelta struct {
	allocBytes, gcCycles, gcCPU, cpu float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() [4]float64 {
	ss := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		ss[i].Name = name
	}
	metrics.Read(ss)
	var out [4]float64
	for i, s := range ss {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

func (d *runtimeDelta) add(before, after [4]float64) {
	d.allocBytes += after[0] - before[0]
	d.gcCycles += after[1] - before[1]
	d.gcCPU += after[2] - before[2]
	d.cpu += after[3] - before[3]
}

// spanSummary is one span name's row in layers.json.
type spanSummary struct {
	Name      string  `json:"name"`
	Count     int     `json:"count"`
	TotalMS   float64 `json:"total_ms"`
	SelfMS    float64 `json:"self_ms"`
	P50US     float64 `json:"p50_us"`
	P99US     float64 `json:"p99_us"`
	NSPerInst float64 `json:"ns_per_inst,omitempty"`
}

// layerReport is the content of <workload>.layers.json.
type layerReport struct {
	Workload string             `json:"workload"`
	Metrics  map[string]float64 `json:"metrics"`
	// Extra holds derived numbers that do not apply to every workload.
	Extra map[string]float64 `json:"extra"`
	Spans []spanSummary      `json:"spans"`
}

// layerMetrics derives the per-layer metrics from a traced run.
func layerMetrics(workload string, tr traceRun) layerReport {
	spans := tr.spans
	linkParents(spans)
	byID := make(map[uint64]int, len(spans))
	for i := range spans {
		byID[spans[i].ID] = i
	}
	childDur := make([]int64, len(spans))
	for i := range spans {
		if p, ok := byID[spans[i].Parent]; ok && spans[i].Parent != 0 {
			childDur[p] += spans[i].dur()
		}
	}
	self := func(i int) int64 { return max(0, spans[i].dur()-childDur[i]) }

	// root returns the outermost ancestor of span i.
	root := func(i int) int {
		for n := 0; n < 64; n++ {
			p, ok := byID[spans[i].Parent]
			if !ok || spans[i].Parent == 0 {
				break
			}
			i = p
		}
		return i
	}
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	extra := map[string]float64{}

	// Shares of the traced ops' latency.
	var opTotal int64
	opCount := 0
	forwarded := map[uint64]bool{}
	underOp := make([]bool, len(spans))
	for i := range spans {
		r := root(i)
		if spans[r].Name != "op" || !spans[r].Timed {
			continue
		}
		underOp[i] = true
		if i == r {
			opTotal += spans[i].dur()
			opCount++
		}
		if spans[i].Name == "http.owner" {
			forwarded[spans[r].ID] = true
		}
	}
	shareSum := map[string]int64{}
	for i := range spans {
		if name, ok := shareLayer[spans[i].Name]; ok && underOp[i] {
			shareSum[name] += self(i)
		}
	}
	for name, v := range shareSum {
		m[name] = ratio(float64(v), float64(opTotal))
	}
	if opCount > 0 {
		m["cluster.forward_frac"] = float64(len(forwarded)) / float64(opCount)
		var fwd, local []float64
		for i := range spans {
			if spans[i].Name == "op" && underOp[i] {
				if forwarded[spans[i].ID] {
					fwd = append(fwd, float64(spans[i].dur())/1e6)
				} else {
					local = append(local, float64(spans[i].dur())/1e6)
				}
			}
		}
		if len(fwd) > 0 && len(local) > 0 {
			m["cluster.forward_extra_ms"] = quantile(fwd, 0.5) - quantile(local, 0.5)
		}
	}
	if n := float64(tr.untraced.attempted); n > 0 {
		m["store.appends_per_op"] = float64(tr.appends) / n
		m["go.alloc_kb_per_op"] = tr.rt.allocBytes / 1024 / n
	}
	m["go.gc_cycles"] = tr.rt.gcCycles
	m["go.gc_cpu_frac"] = ratio(tr.rt.gcCPU, tr.rt.cpu)
	m["trace_overhead_frac"] = 1 - tr.traced.opsPerSec()/tr.untraced.opsPerSec()
	extra["traced_one_op_in"] = float64(tr.every)
	extra["untraced_ops_per_s"] = tr.untraced.opsPerSec()
	extra["traced_ops_per_s"] = tr.traced.opsPerSec()

	// Per-call costs, over every span of the process.
	type acc struct {
		n            int
		dur, insts   int64
		self         int64
		durs         []float64
		ff, sampled  uint64
		cyc, skipped uint64
	}
	by := map[string]*acc{}
	// arms[workload/machine][predictor] accumulates measured regions.
	arms := map[string]map[string]*acc{}
	var runTimed, runMax, stageDur int64
	var hits, lookups int
	for i := range spans {
		s := &spans[i]
		a := by[s.Name]
		if a == nil {
			a = &acc{}
			by[s.Name] = a
		}
		a.n++
		a.dur += s.dur()
		a.self += self(i)
		a.insts += int64(s.Insts)
		a.durs = append(a.durs, float64(s.dur())/1e3)
		a.ff += s.FF
		a.sampled += s.Sampled
		a.cyc += s.Cycles
		a.skipped += s.Skipped
		switch s.Name {
		case "ooo.run_measure":
			if cut := strings.LastIndexByte(s.Attr, '/'); cut > 0 {
				g, p := s.Attr[:cut], s.Attr[cut+1:]
				if arms[g] == nil {
					arms[g] = map[string]*acc{}
				}
				if arms[g][p] == nil {
					arms[g][p] = &acc{}
				}
				arms[g][p].dur += s.dur()
				arms[g][p].insts += int64(s.Insts)
			}
		case "harness.run":
			runMax = max(runMax, s.dur())
			stageDur += childDur[i]
			if s.Timed {
				runTimed += s.dur()
			}
		case "store.result.get", "store.result.has":
			if s.Timed {
				lookups++
				if s.Attr == "hit" {
					hits++
				}
			}
		}
	}
	nsPerInst := func(name string) float64 {
		if a := by[name]; a != nil {
			return ratio(float64(a.dur), float64(a.insts))
		}
		return 0
	}
	meanMS := func(name string) float64 {
		if a := by[name]; a != nil {
			return float64(a.dur) / float64(a.n) / 1e6
		}
		return 0
	}
	// quantileUS is the q-quantile of a span's durations in µs.
	quantileUS := func(name string, q float64) float64 {
		if a := by[name]; a != nil {
			return quantile(a.durs, q)
		}
		return 0
	}
	m["ooo.measure_ns_per_inst"] = nsPerInst("ooo.run_measure")
	m["ooo.warmup_ns_per_inst"] = nsPerInst("ooo.run_warmup")
	var extraSum float64
	pairs := 0
	for _, g := range arms {
		if b, f := g["none"], g["fvp"]; b != nil && f != nil {
			extraSum += ratio(float64(f.dur), float64(f.insts)) - ratio(float64(b.dur), float64(b.insts))
			pairs++
		}
	}
	m["vp.fvp_extra_ns_per_inst"] = ratio(extraSum, float64(pairs))
	if a := by["ooo.run_measure"]; a != nil {
		m["ooo.skip_ratio"] = ratio(float64(a.skipped), float64(a.cyc))
	}
	m["workload.build_ms"] = meanMS("workload.build")
	m["prog.build_memory_ms"] = meanMS("prog.build_memory")
	m["ooo.core_reset_ms"] = meanMS("ooo.core_reset")
	m["ooo.warm_caches_ms"] = meanMS("ooo.warm_caches")
	m["prog.exec_ns_per_inst"] = nsPerInst("prog.scan")
	m["prog.checkpoint_us"] = meanMS("prog.checkpoint") * 1e3
	m["prog.restore_us"] = meanMS("prog.restore") * 1e3
	m["ooo.warm_functional_ns_per_inst"] = nsPerInst("ooo.warm_functional")
	m["store.job_append_p50_us"] = quantileUS("store.job.append", 0.5)
	m["store.job_append_p99_us"] = quantileUS("store.job.append", 0.99)
	m["store.job_set_state_us"] = quantileUS("store.job.set_state", 0.5)
	m["store.result_get_us"] = quantileUS("store.result.get", 0.5)
	m["store.result_put_us"] = quantileUS("store.result.put", 0.5)
	m["simd.queue_wait_p50_ms"] = quantileUS("simd.queue_wait", 0.5) / 1e3
	m["simd.queue_wait_p99_ms"] = quantileUS("simd.queue_wait", 0.99) / 1e3
	m["http.handler_p50_us"] = quantileUS("http.handler", 0.5)
	m["http.handler_p99_us"] = quantileUS("http.handler", 0.99)
	m["cluster.owner_handler_us"] = quantileUS("http.owner", 0.5)
	m["harness.run_ms_max"] = float64(runMax) / 1e6
	if a := by["harness.run"]; a != nil {
		m["harness.stage_coverage"] = ratio(float64(stageDur), float64(a.dur))
		m["harness.ff_share"] = ratio(float64(a.ff), float64(a.ff)+float64(a.insts))
		m["harness.sampled_insts"] = float64(a.sampled) / float64(a.n)
	}
	// Only one op in tr.every was traced, so the traced runs' time is
	// scaled up to all of them.
	m["harness.parallel_efficiency"] = ratio(float64(runTimed)*float64(tr.every), tr.traced.wall.Seconds()*1e9*float64(tr.procs))
	m["store.result_hit_ratio"] = ratio(float64(hits), float64(lookups))

	rep := layerReport{Workload: workload, Metrics: m, Extra: extra}
	for name, a := range by {
		rep.Spans = append(rep.Spans, spanSummary{
			Name: name, Count: a.n,
			TotalMS: float64(a.dur) / 1e6, SelfMS: float64(a.self) / 1e6,
			P50US: quantile(a.durs, 0.5), P99US: quantile(a.durs, 0.99),
			NSPerInst: ratio(float64(a.dur), float64(a.insts)),
		})
	}
	sort.Slice(rep.Spans, func(i, j int) bool { return rep.Spans[i].Name < rep.Spans[j].Name })
	return rep
}

// linkParents gives each unparented span below a request the innermost
// container span with the same key whose interval holds it.
func linkParents(spans []span) {
	byKey := map[string][]int{}
	for i := range spans {
		if containers[spans[i].Name] && spans[i].Key != "" {
			byKey[spans[i].Key] = append(byKey[spans[i].Key], i)
		}
	}
	for _, idx := range byKey {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 || s.Name == "op" || s.Key == "" {
			continue
		}
		idx := byKey[s.Key]
		// The innermost container is the latest-starting one that began
		// no later than s and ends no earlier. Requests nest a few
		// containers deep, so a short look back finds it.
		j := sort.Search(len(idx), func(k int) bool { return spans[idx[k]].Start > s.Start }) - 1
		for stop := j - 16; j >= 0 && j > stop; j-- {
			c := &spans[idx[j]]
			if c.ID != s.ID && c.End >= s.End {
				s.Parent = c.ID
				break
			}
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
