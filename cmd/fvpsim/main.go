// Command fvpsim runs one workload on one simulated machine with one value
// predictor and prints the measured metrics, optionally against the
// no-prediction baseline.
//
// Usage:
//
//	fvpsim -workload omnetpp -machine skylake -predictor fvp -compare
//	fvpsim -workload omnetpp -predictor fvp -json
//	fvpsim -workload omnetpp -predictor fvp -trace trace.json
//	fvpsim -workload omnetpp -predictor fvp -intervals ipc.json
//	fvpsim -workload omnetpp -predictor fvp -warmup-mode functional -regions 4
//	fvpsim -workload omnetpp -predictor fvp -insts 10000000 -sample-units 16
//	fvpsim -workload omnetpp -predictor fvp -insts 10000000 -sample-ci 0.02
//	fvpsim -suite -predictor fvp -workload omnetpp,mcf,gcc
//	fvpsim -server http://localhost:8080 -workload omnetpp -predictor fvp
//	fvpsim -list
//
// With -server the simulation is submitted to a running fvpd daemon
// (sharing its result cache) instead of executing locally. With -json the
// result is emitted as one machine-readable report row, an fvp.ReportRecord;
// without -compare the baseline fields are zero.
//
// With -trace the run records per-instruction pipeline timelines for the
// first -trace-insts instructions of the measured region and writes
// Chrome trace-event JSON — open the file at https://ui.perfetto.dev to
// see fetch→rename→issue→complete→retire slices per instruction, with
// value-prediction and flush events marked. With -intervals the run's
// interval telemetry (IPC, coverage, stall breakdown, occupancies over
// time) is written as a JSON array. Both are local-only: they read the
// simulated machine directly and cannot cross the fvpd wire.
//
// With -sample-units or -sample-ci the measured region is estimated by
// SMARTS-style statistical sampling instead of simulated in full detail:
// K systematic sample units run in detail (in parallel, up to -parallel
// workers) and the gaps fast-forward functionally. The output then carries
// a 95% confidence interval on IPC; -sample-ci 0.02 grows the unit count
// until the interval is within ±2%. Sampling pays off when -insts is
// paper-scale (millions) — see EXPERIMENTS.md for interpreting the CI.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"fvp"
	"fvp/internal/simd/client"
)

func main() {
	var (
		wl         = flag.String("workload", "omnetpp", "workload name (see -list); with -suite, a comma-separated subset or \"all\"")
		machine    = flag.String("machine", "skylake", "skylake | skylake2x")
		pred       = flag.String("predictor", "fvp", "predictor configuration (see -list)")
		warmup     = flag.Uint64("warmup", 100_000, "warmup instructions")
		insts      = flag.Uint64("insts", 300_000, "measured instructions")
		warmMode   = flag.String("warmup-mode", "", "detailed | functional (default detailed; functional fast-forwards warmup at O(insts))")
		regions    = flag.Int("regions", 0, "split the measured region into this many checkpointed slices simulated in parallel (0/1 = monolithic)")
		parallel   = flag.Int("parallel", 0, "concurrent region/sample-unit workers (with -regions or -sample-units) or concurrent workloads (with -suite); 0 = GOMAXPROCS")
		sampUnits  = flag.Int("sample-units", 0, "estimate the measured region from this many detailed sample units instead of full detail (0 = off)")
		sampCI     = flag.Float64("sample-ci", 0, "target relative 95% CI half-width on IPC, e.g. 0.02 for ±2%; grows the unit count until met (0 = off)")
		sampSeed   = flag.Uint64("sample-seed", 0, "sampling phase seed (results are deterministic per seed)")
		compare    = flag.Bool("compare", false, "also run the baseline and report speedup")
		suite      = flag.Bool("suite", false, "run baseline-vs-predictor over the workloads and report per-workload speedups")
		jsonOut    = flag.Bool("json", false, "emit the result as one JSON report row")
		tracePath  = flag.String("trace", "", "write a Chrome/Perfetto pipeline trace of the measured region to this file")
		traceInsts = flag.Int("trace-insts", 0, "instructions captured by -trace (0 = default window)")
		ivPath     = flag.String("intervals", "", "write interval telemetry (JSON array of samples) to this file")
		interval   = flag.Uint64("interval", 0, "sampling period in cycles for -intervals (0 = default)")
		server     = flag.String("server", "", "fvpd base URL; submit there instead of simulating locally")
		tenant     = flag.String("tenant", "", "tenant ID to submit runs under (with -server; subject to the daemon's quotas)")
		clusterOn  = flag.Bool("cluster", false, "print the server's cluster membership and forwarding health, then exit (with -server)")
		latency    = flag.Bool("latency", false, "print the server's request-latency p50/p99 (fvpd_request_seconds), then exit (with -server)")
		slo        = flag.Duration("slo", 0, "latency SLO target to judge -latency output against (0 = report only)")
		list       = flag.Bool("list", false, "list workloads and predictors, then exit")
	)
	flag.Parse()

	if *latency {
		if *server == "" {
			fail(fmt.Errorf("-latency needs -server"))
		}
		sum, err := client.New(*server).RequestLatency(context.Background())
		if err != nil {
			fail(err)
		}
		fmt.Printf("requests %d  mean %s  p50 %s  p99 %s\n",
			sum.Count, fmtSecs(sum.Mean()), fmtSecs(sum.P50), fmtSecs(sum.P99))
		if *slo > 0 {
			verdict := "MET"
			if sum.P99 > slo.Seconds() {
				verdict = "MISSED"
			}
			fmt.Printf("SLO %s: %s (p99 %s)\n", *slo, verdict, fmtSecs(sum.P99))
			if verdict == "MISSED" {
				os.Exit(1)
			}
		}
		return
	}

	if *clusterOn {
		if *server == "" {
			fail(fmt.Errorf("-cluster needs -server"))
		}
		st, err := client.New(*server).Cluster(context.Background())
		if err != nil {
			fail(err)
		}
		if st.Self == "" {
			fmt.Println("single-node deployment (no -peers)")
			return
		}
		fmt.Printf("node %s, %d vnodes/node\n", st.Self, st.VNodes)
		for _, p := range st.Peers {
			mark := " "
			if p.Self {
				mark = "*"
			}
			fmt.Printf("%s %-12s %-24s health=%-9s inflight=%d forwarded=%d errors=%d",
				mark, p.ID, p.URL, p.Health, p.Inflight, p.Forwarded, p.ForwardErrors)
			if p.LastError != "" {
				fmt.Printf(" last-error=%q", p.LastError)
			}
			fmt.Println()
		}
		return
	}

	if *list {
		fmt.Println("workloads:")
		for _, w := range fvp.Workloads() {
			fmt.Printf("  %-18s %s\n", w.Name, w.Category)
		}
		fmt.Println("predictors:")
		for _, p := range fvp.Predictors() {
			bytes, _ := fvp.StorageBytes(p)
			fmt.Printf("  %-18s %5d B\n", p, bytes)
		}
		return
	}
	ctx := context.Background()

	if *suite {
		// The suite sweep runs locally and reports a table, so it takes
		// none of the single-run output, tap or daemon flags.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "server", "tenant", "regions", "json", "trace", "intervals":
				fail(fmt.Errorf("-%s is not supported with -suite", f.Name))
			}
		})
		runSuite(ctx, *wl, *machine, *pred, *warmup, *insts, *warmMode, *parallel, *sampUnits, *sampCI, *sampSeed)
		return
	}

	spec := fvp.RunSpec{
		Workload:       *wl,
		Machine:        fvp.Machine(*machine),
		Predictor:      fvp.Predictor(*pred),
		WarmupInsts:    *warmup,
		MeasureInsts:   *insts,
		WarmupMode:     *warmMode,
		Regions:        *regions,
		RegionWorkers:  *parallel,
		SampleUnits:    *sampUnits,
		SampleTargetCI: *sampCI,
		SampleSeed:     *sampSeed,
	}

	run := fvp.RunContext
	if *server != "" {
		if *tracePath != "" || *ivPath != "" {
			fail(fmt.Errorf("-trace and -intervals are local-only (they read the simulated machine directly); drop -server"))
		}
		c := client.New(*server)
		run = func(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error) {
			return c.Run(ctx, spec, *tenant)
		}
	}

	var trace *fvp.PipeTrace
	if *tracePath != "" {
		trace = fvp.NewPipeTrace(*traceInsts)
		spec.Tracer = trace
	}
	var ivLog *intervalLog
	if *ivPath != "" {
		ivLog = &intervalLog{}
		spec.Observer = ivLog
		spec.ObserverInterval = *interval
	}

	var base *fvp.Metrics
	if *compare {
		baseSpec := spec
		baseSpec.Predictor = fvp.PredNone
		baseSpec.Tracer = nil // taps observe the predictor run only
		baseSpec.Observer = nil
		b, err := run(ctx, baseSpec)
		if err != nil {
			fail(err)
		}
		base = &b
	}
	m, err := run(ctx, spec)
	if err != nil {
		fail(err)
	}

	if trace != nil {
		if err := writeTrace(*tracePath, trace); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "fvpsim: wrote %d-instruction pipeline trace to %s (open at ui.perfetto.dev)\n",
			trace.Insts(), *tracePath)
	}
	if ivLog != nil {
		if err := writeJSONFile(*ivPath, ivLog.samples); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "fvpsim: wrote %d interval samples to %s\n", len(ivLog.samples), *ivPath)
	}

	if *jsonOut {
		rec := fvp.ToRecord(spec, base, m)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rec); err != nil {
			fail(err)
		}
		return
	}

	if *compare {
		c := fvp.Comparison{Workload: *wl, Base: *base, Pred: m}
		fmt.Printf("%s on %s (%s):\n", *wl, *machine, *pred)
		fmt.Printf("  baseline IPC  %.3f\n", c.Base.IPC)
		fmt.Printf("  predictor IPC %.3f  (%+.2f%%)\n", c.Pred.IPC, (c.Speedup()-1)*100)
		fmt.Printf("  coverage      %.1f%% of loads, accuracy %.2f%%, flushes %d\n",
			c.Pred.Coverage*100, c.Pred.Accuracy*100, c.Pred.VPFlushes)
		fmt.Printf("  loads by level (base) L1=%d L2=%d LLC=%d MEM=%d\n",
			c.Base.LoadsByLevel[0], c.Base.LoadsByLevel[1], c.Base.LoadsByLevel[2], c.Base.LoadsByLevel[3])
		printSampling(m, *insts)
		return
	}
	fmt.Printf("%s on %s (%s): IPC=%.3f cycles=%d insts=%d loads=%d\n",
		*wl, *machine, *pred, m.IPC, m.Cycles, m.Insts, m.Loads)
	printSampling(m, *insts)
	fmt.Printf("  coverage %.1f%% accuracy %.2f%% vp-flushes %d branch-mispredicts %d forwards %d\n",
		m.Coverage*100, m.Accuracy*100, m.VPFlushes, m.BranchMispredicts, m.Forwards)
	fmt.Printf("  loads by level L1=%d L2=%d LLC=%d MEM=%d\n",
		m.LoadsByLevel[0], m.LoadsByLevel[1], m.LoadsByLevel[2], m.LoadsByLevel[3])
	fmt.Printf("  cycle breakdown:")
	names := fvp.CycleBucketNames()
	for i, n := range m.CycleBreakdown {
		if n == 0 {
			continue
		}
		fmt.Printf(" %s=%.0f%%", names[i], 100*float64(n)/float64(m.Cycles))
	}
	fmt.Println()
}

// printSampling appends the sampled run's confidence interval to the
// human-readable output.
func printSampling(m fvp.Metrics, measure uint64) {
	s := m.Sampling
	if s == nil {
		return
	}
	fmt.Printf("  sampled: %d units × %d insts (%d of %d in detail), IPC ±%.2f%% (95%% CI)",
		s.Units, s.UnitInsts, s.SampledInsts, measure, s.IPC.RelCI*100)
	if s.TargetCI > 0 && !s.Converged {
		fmt.Printf("  [NOT CONVERGED to ±%.2f%% after %d rounds]", s.TargetCI*100, s.Rounds)
	}
	fmt.Println()
}

// runSuite is the -suite mode: baseline-vs-predictor across workloads.
func runSuite(ctx context.Context, wl, machine, pred string, warmup, insts uint64, warmMode string, parallel, sampUnits int, sampCI float64, sampSeed uint64) {
	spec := fvp.SuiteSpec{
		Machine:        fvp.Machine(machine),
		Predictor:      fvp.Predictor(pred),
		WarmupInsts:    warmup,
		MeasureInsts:   insts,
		WarmupMode:     warmMode,
		Parallelism:    parallel,
		SampleUnits:    sampUnits,
		SampleTargetCI: sampCI,
		SampleSeed:     sampSeed,
	}
	if wl != "" && wl != "all" {
		spec.Workloads = strings.Split(wl, ",")
	}
	cs, err := fvp.CompareSuiteContext(ctx, spec)
	if err != nil {
		fail(err)
	}
	sampled := sampUnits != 0 || sampCI != 0
	fmt.Printf("%-18s %-10s %10s %10s %9s %9s", "workload", "category", "base IPC", "pred IPC", "speedup", "coverage")
	if sampled {
		fmt.Printf(" %9s", "ipc CI")
	}
	fmt.Println()
	for _, c := range cs {
		fmt.Printf("%-18s %-10s %10.3f %10.3f %+8.2f%% %8.1f%%",
			c.Workload, c.Category, c.Base.IPC, c.Pred.IPC, (c.Speedup()-1)*100, c.Pred.Coverage*100)
		if sampled && c.Pred.Sampling != nil {
			fmt.Printf("  ±%.2f%%", c.Pred.Sampling.IPC.RelCI*100)
		}
		fmt.Println()
	}
	fmt.Printf("geomean speedup %+.2f%%\n", (fvp.Geomean(cs)-1)*100)
}

// intervalLog collects the run's interval telemetry for -intervals.
type intervalLog struct {
	samples []fvp.IntervalMetrics
}

func (l *intervalLog) OnInterval(m fvp.IntervalMetrics) { l.samples = append(l.samples, m) }

func writeTrace(path string, tr *fvp.PipeTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fmtSecs renders a latency in the most readable unit.
func fmtSecs(s float64) string {
	switch {
	case s >= 1:
		return fmt.Sprintf("%.2fs", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.0fµs", s*1e6)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fvpsim:", err)
	os.Exit(1)
}
