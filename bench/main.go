// Command bench is the repository's benchmark. One invocation runs one
// workload in this process, checks every result against the recorded
// expected outputs, prints each metric as "workload metric value unit",
// and prints a JSON summary as its last line:
//
//	bash bench/run.sh --workload paper-sweep --seed 1 --seconds 25 --trace 0
//
// (or "go run . ..." from this directory). --trace 1 measures the
// per-layer metrics instead and writes spans, layer metrics and a CPU
// profile under -trace-dir. BENCHMARK.json at the repository root lists
// the workloads and metrics; README.md explains them.
//
// Two more modes compare builds: -runs N runs every workload N times,
// each in a child process, and prints the median and quartiles of each
// metric; -compare parent.json change.json judges a change against its
// parent with the bounds in BENCHMARK.json. -record-expected DIR records
// the expected outputs with the fvp library.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"fvp"
)

// setups is how many times an untraced run sets its system up; setup_s is
// their median, so one slow set-up does not move it.
const setups = 3

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var (
		name     = fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
		seed     = fs.Uint64("seed", 1, "input seed; it permutes the order of the workload's inputs")
		seconds  = fs.Float64("seconds", 25, "length of the timed phase in seconds")
		trace    = fs.Int("trace", 0, "1 measures the per-layer metrics instead of the end-to-end ones")
		sc       = fs.String("scale", string(scaleFull), "input sizes: full, or tiny for the smoke test")
		traceDir = fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "where --trace 1 writes <workload>.spans.json, .layers.json and .cpu.pprof")
		runs     = fs.Int("runs", 0, "run every workload (or --workload) this many times, each in a child process with the next seed, and summarise each metric")
		out      = fs.String("out", "", "with -runs, append the runs to this JSON file")
		compare  = fs.Bool("compare", false, "compare two -runs files given as arguments: parent.json change.json")
		bfPath   = fs.String("benchmark", "BENCHMARK.json", "with -compare, the file holding the metrics' bounds")
		record   = fs.String("record-expected", "", "record the expected outputs of every workload (or --workload) into this directory")
		probe    = fs.Bool("probe", false, "serve host probes: time one probe slice per line read from standard input (the benchmark starts itself so)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *probe {
		if err := serveProbes(os.Stdin, stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	o := runOptions{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, scale: scale(*sc), traceDir: *traceDir}
	if o.scale != scaleFull && o.scale != scaleTiny {
		return fail(fmt.Errorf("-scale %q: want full or tiny", *sc))
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two files: parent.json change.json"))
		}
		regressed, err := compareFiles(*bfPath, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	case *record != "":
		log := func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) }
		if *name != "" {
			names = []string{*name}
		}
		if err := recordExpected(ctx, names, *record, log); err != nil {
			return fail(err)
		}
		return 0
	case *runs > 0:
		sel := workloads
		if *name != "" {
			w, ok := workloadByName(*name)
			if !ok {
				return fail(fmt.Errorf("no workload %q; have %s", *name, strings.Join(names, ", ")))
			}
			sel = []*benchWorkload{w}
		}
		if err := repeat(ctx, sel, *runs, o, *out, stdout, stderr); err != nil {
			return fail(err)
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fail(fmt.Errorf("no workload %q; have %s", *name, strings.Join(names, ", ")))
	}
	res, err := runWorkload(ctx, w, o, stdout)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", w.name, err))
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

type runOptions struct {
	seed     uint64
	dur      time.Duration
	trace    bool
	scale    scale
	traceDir string
}

// runResult is the JSON summary of one run, the last line it prints.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// MarshalJSON writes +Inf, the latency of a failed op, as the largest
// float64, which JSON can hold.
func (m metric) MarshalJSON() ([]byte, error) {
	type plain metric
	if math.IsInf(m.Value, 1) {
		m.Value = math.MaxFloat64
	}
	return json.Marshal(plain(m))
}

// runWorkload sets w up, drives it for o.dur and reports its end-to-end
// metrics, or with o.trace its per-layer metrics, printing each as a line
// to out.
func runWorkload(ctx context.Context, w *benchWorkload, o runOptions, out io.Writer) (runResult, error) {
	exp, err := loadExpected(w, o.scale)
	if err != nil {
		return runResult{}, err
	}
	ins := w.permute(w.inputs(o.scale), o.seed)
	e := &env{expected: exp.byKey}
	if o.trace {
		// A traced run reports no setup_s, so it sets up once.
		e.tr = newTracer()
		sys, _, cleanup, err := setUp(ctx, w, e, ins, nil, 1)
		if err != nil {
			return runResult{}, err
		}
		defer cleanup()
		runtime.GC()
		var next int
		stretch := func(dur time.Duration) *opStats {
			return drive(ctx, sys, ins, e.expected, newFeeder(ins, w.unique, dur, 0, &next), e.tr)
		}
		return runTraced(ctx, w, o, sys, e.tr, stretch, out)
	}

	pr, err := startProber(ctx)
	if err != nil {
		return runResult{}, fmt.Errorf("starting the host probe: %w", err)
	}
	defer pr.close()
	n := setups
	if o.scale == scaleTiny {
		n = 1 // the smoke test checks that setup_s is reported, not its spread
	}
	sys, setupS, cleanup, err := setUp(ctx, w, e, ins, pr, n)
	if err != nil {
		return runResult{}, err
	}
	defer cleanup()
	runtime.GC()

	// The timed phase: segments of load with a probe of the host before
	// each and after the last. Each segment's latencies are scaled to the
	// reference host speed by the mean of the probes on either side.
	var next int
	f := newFeeder(ins, w.unique, o.dur, segmentMin, &next)
	st, atRef := &opStats{}, &opStats{}
	var probes, peaks []float64
	mem := startMemSampler()
	defer mem.close()
	p0, err := pr.factor()
	for err == nil && !f.done() && ctx.Err() == nil {
		mem.takePeakMB() // the probe before the segment is not part of it
		seg := drive(ctx, sys, ins, e.expected, f, nil)
		peaks = append(peaks, mem.takePeakMB())
		var p1 float64
		if p1, err = pr.factor(); err != nil {
			break
		}
		st.merge(seg)
		seg.scale((p0 + p1) / 2)
		atRef.merge(seg)
		probes = append(probes, p0)
		p0 = p1
		f.seg = max(segmentMin, time.Duration(10*st.meanMS()*float64(time.Millisecond)))
	}
	if err != nil {
		return runResult{}, fmt.Errorf("probing the host: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return runResult{}, err
	}
	probes = append(probes, p0)

	res := summarize(st)
	set := func(name string, v float64) { res.Metrics[name] = metric{v, unitOf(endToEnd, name)} }
	set("ops_per_s", atRef.closedLoopRate(sys.clients))
	set("latency_p50_ms", quantile(atRef.latMS, 0.5))
	set("latency_tail_ms", quantile(atRef.latMS, w.tail))
	set("peak_rss_mb", median(peaks))
	set("setup_s", median(setupS))
	printMetrics(out, w.name, endToEnd, res.Metrics)
	fmt.Fprintf(out, "%s ops %d (%d failed; tail is p%g; %d set-ups)\n", w.name, st.attempted, st.failed, w.tail*100, n)
	fmt.Fprintf(out, "%s host_factor %.4f (median of %d probes, spread %.1f%%; the times above are at the reference host's speed)\n",
		w.name, median(probes), len(probes), spread(probes)*100)
	fmt.Fprintf(out, "%s measured ops_per_s %.6g latency_p50_ms %.6g latency_tail_ms %.6g\n", w.name,
		st.closedLoopRate(sys.clients), quantile(st.latMS, 0.5), quantile(st.latMS, w.tail))
	fmt.Fprintf(out, "%s ru_maxrss_mb %.1f (the process's lifetime peak; peak_rss_mb is the median of %d segments' peaks)\n",
		w.name, maxRSSMB(), len(peaks))
	if w.sweep {
		fmt.Fprintf(out, "%s sim_mips %.4f Minst/s measured\n", w.name, float64(st.insts)/st.wall.Seconds()/1e6)
		printSpeedups(out, w.name, ins, st.ipc)
	}
	printErrors(out, w.name, st)
	return res, nil
}

// segmentMin is the shortest segment of a timed phase between two probes
// of the host. A segment also lasts at least ten mean op latencies, so
// that the clients' wait for each other at its end stays small.
const segmentMin = time.Second

// setUp sets the system up n times, each time from scratch in a
// fresh directory, and keeps the last. It returns each set-up's seconds,
// at the reference host speed when pr probes the host around each, and a
// cleanup that closes the system and removes its directory.
func setUp(ctx context.Context, w *benchWorkload, e *env, ins []input, pr *prober, n int) (*system, []float64, func(), error) {
	var secs []float64
	p0 := 1.0
	if pr != nil {
		var err error
		if p0, err = pr.factor(); err != nil {
			return nil, nil, nil, fmt.Errorf("probing the host: %w", err)
		}
	}
	for i := 0; ; i++ {
		dir, err := os.MkdirTemp("", "fvp-bench-")
		if err != nil {
			return nil, nil, nil, err
		}
		e.workDir = dir
		t0 := time.Now()
		sys, err := w.start(ctx, e, ins)
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		sec := time.Since(t0).Seconds()
		cleanup := func() {
			sys.close()
			os.RemoveAll(dir)
		}
		if pr != nil {
			p1, err := pr.factor()
			if err != nil {
				cleanup()
				return nil, nil, nil, fmt.Errorf("probing the host: %w", err)
			}
			sec /= (p0 + p1) / 2
			p0 = p1
		}
		secs = append(secs, sec)
		if i == n-1 {
			return sys, secs, cleanup, nil
		}
		cleanup()
		// Hand the discarded system's memory back, so that the peak RSS
		// is not set by leftovers.
		debug.FreeOSMemory()
	}
}

// summarize starts a run's summary from its op counts. A run is correct
// when it completed ops and every one matched its expected output.
func summarize(st *opStats) runResult {
	return runResult{
		Correct:   st.attempted > 0 && st.failed == 0,
		Attempted: st.attempted,
		Failed:    st.failed,
		Metrics:   map[string]metric{},
	}
}

func printMetrics(out io.Writer, workload string, defs []metricDef, ms map[string]metric) {
	for _, d := range defs {
		fmt.Fprintf(out, "%s %s %.6g %s\n", workload, d.Name, ms[d.Name].Value, d.Unit)
	}
}

func printErrors(out io.Writer, workload string, st *opStats) {
	for _, e := range st.errs {
		fmt.Fprintf(out, "%s error %s\n", workload, e)
	}
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("no metric " + name)
}

// paperSpeedup is the geomean FVP speedup the paper reports per machine
// (Fig 6 and Fig 7).
var paperSpeedup = map[fvp.Machine]float64{fvp.Skylake: 1.033, fvp.Skylake2X: 1.086}

// printSpeedups prints the geomean FVP speedup over baseline per machine
// from the IPCs a sweep returned, beside the paper's figure.
func printSpeedups(out io.Writer, workload string, ins []input, ipc map[string]float64) {
	logSum := map[fvp.Machine]float64{}
	count := map[fvp.Machine]int{}
	for _, in := range ins {
		if in.spec.Predictor != fvp.PredFVP {
			continue
		}
		base := in.spec
		base.Predictor = fvp.PredNone
		p, b := ipc[in.key], ipc[specKey(base)]
		if p == 0 || b == 0 {
			continue
		}
		m := in.spec.Normalized().Machine
		logSum[m] += math.Log(p / b)
		count[m]++
	}
	for _, m := range []fvp.Machine{fvp.Skylake, fvp.Skylake2X} {
		if count[m] == 0 {
			continue
		}
		got := math.Exp(logSum[m] / float64(count[m]))
		fmt.Fprintf(out, "%s fvp_speedup_%s %+.2f%% over %d workloads (paper %+.1f%%, error %+.2f points)\n",
			workload, m, (got-1)*100, count[m], (paperSpeedup[m]-1)*100, (got-paperSpeedup[m])*100)
	}
}

// maxRSSMB is the process's lifetime peak resident set. Linux reports
// ru_maxrss in KiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
