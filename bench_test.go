package fvp_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section (§VI). Each figure benchmark regenerates the artifact
// over the full 60-workload study list with a reduced instruction budget
// per run (the shape of the results is stable well below the paper's
// trace lengths; use cmd/experiments for full-length reproductions) and
// reports the headline number as a custom metric:
//
//	geo_gain_pct — geometric-mean IPC gain of the headline configuration
//	coverage_pct — mean fraction of loads value-predicted
//
// Micro-benchmarks for the substrate data structures follow at the end.

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"testing"
	"time"

	"fvp"
	"fvp/internal/branch"
	"fvp/internal/cache"
	"fvp/internal/core"
	"fvp/internal/dram"
	"fvp/internal/harness"
	"fvp/internal/isa"
	"fvp/internal/memdep"
	"fvp/internal/ooo"
	"fvp/internal/prog"
	"fvp/internal/simd"
	"fvp/internal/telemetry"
	"fvp/internal/vp"
	"fvp/internal/workload"
)

// benchOpt is the reduced per-run budget used by the figure benchmarks.
var benchOpt = harness.Options{WarmupInsts: 30_000, MeasureInsts: 80_000}

// newRunner builds an experiment runner at the reduced budget; a failed
// suite run fails the benchmark instead of reporting zero rows.
func newRunner(b *testing.B) *harness.Runner {
	r := harness.NewRunnerCtx(context.Background(), benchOpt)
	b.Cleanup(func() {
		if err := r.Err(); err != nil {
			b.Error(err)
		}
	})
	return r
}

// headline runs predictor spec over the suite and reports gain/coverage.
func headline(b *testing.B, cfg ooo.Config, spec harness.Spec) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := newRunner(b)
		pairs := r.Compare(cfg, spec)
		b.ReportMetric((harness.Geomean(pairs)-1)*100, "geo_gain_pct")
		b.ReportMetric(harness.MeanCoverage(pairs)*100, "coverage_pct")
	}
}

// BenchmarkTable1Storage regenerates the Table-I storage budget.
func BenchmarkTable1Storage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := core.New(core.DefaultConfig())
		total := 0
		for _, it := range f.StorageBreakdown() {
			total += it.Bits
		}
		b.ReportMetric(float64(total)/8/1024, "KB")
	}
}

// BenchmarkTable2CoreParams renders the Table-II configuration dump.
func BenchmarkTable2CoreParams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := fvp.RunExperiments(context.Background(), []string{"table2"}, io.Discard, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Workloads builds and validates the whole study list.
func BenchmarkTable3Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := workload.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6FVPSkylake — FVP gain & coverage on Skylake (paper: +3.3% @ 25%).
func BenchmarkFig6FVPSkylake(b *testing.B) { headline(b, ooo.Skylake(), harness.SpecFVP) }

// BenchmarkFig7FVPSkylake2X — FVP on the scaled core (paper: +8.6% @ 24%).
func BenchmarkFig7FVPSkylake2X(b *testing.B) { headline(b, ooo.Skylake2X(), harness.SpecFVP) }

// BenchmarkFig8PerWorkload regenerates the per-workload IPC/coverage series.
func BenchmarkFig8PerWorkload(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := newRunner(b)
		pairs := r.Compare(ooo.Skylake(), harness.SpecFVP)
		best := 1.0
		for _, p := range pairs {
			if s := p.Speedup(); s > best {
				best = s
			}
		}
		b.ReportMetric((best-1)*100, "max_gain_pct")
	}
}

// BenchmarkFig9Scaling regenerates the Skylake vs Skylake-2X series and
// reports the scaled core's extra benefit.
func BenchmarkFig9Scaling(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := newRunner(b)
		sky := harness.Geomean(r.Compare(ooo.Skylake(), harness.SpecFVP))
		sky2 := harness.Geomean(r.Compare(ooo.Skylake2X(), harness.SpecFVP))
		b.ReportMetric((sky-1)*100, "skylake_gain_pct")
		b.ReportMetric((sky2-1)*100, "skylake2x_gain_pct")
	}
}

// arm is one labelled predictor arm; its metric unit is label+"_pct".
type arm struct {
	label string
	spec  harness.Spec
}

// reportArms compares each arm with the baseline on cfg and reports its
// geomean IPC gain.
func reportArms(b *testing.B, r *harness.Runner, cfg ooo.Config, arms []arm) {
	for _, a := range arms {
		g := harness.Geomean(r.Compare(cfg, a.spec))
		b.ReportMetric((g-1)*100, a.label+"_pct")
	}
}

// fig10Arms are the five prior-art bars of Figs 10/11.
var fig10Arms = []arm{
	{"MR-8KB", harness.SpecMR8KB}, {"Composite-8KB", harness.SpecComp8KB},
	{"FVP", harness.SpecFVP},
	{"MR-1KB", harness.SpecMR1KB}, {"Composite-1KB", harness.SpecComp1KB},
}

// BenchmarkFig10PriorArtSkylake — the area-vs-performance comparison
// (paper: FVP at 1.2 KB ≈ the 8 KB predictors, ≈2× the 1 KB ones).
func BenchmarkFig10PriorArtSkylake(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reportArms(b, newRunner(b), ooo.Skylake(), fig10Arms)
	}
}

// BenchmarkFig11PriorArtSkylake2X repeats Fig 10 on the scaled core.
func BenchmarkFig11PriorArtSkylake2X(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reportArms(b, newRunner(b), ooo.Skylake2X(), fig10Arms)
	}
}

// BenchmarkFig12Criticality — criticality-policy sensitivity (paper:
// L1-Miss-Only ≈ 0 < L1-Miss < FVP ≲ Oracle).
func BenchmarkFig12Criticality(b *testing.B) {
	arms := []arm{
		{"FVP-L1-Miss-Only", harness.SpecFVPL1MissOnl}, {"FVP-L1-Miss", harness.SpecFVPL1Miss},
		{"FVP", harness.SpecFVP}, {"FVP-Oracle", harness.SpecFVPOracle},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reportArms(b, newRunner(b), ooo.Skylake(), arms)
	}
}

// BenchmarkFig13Components — register- vs memory-dependence contribution
// (paper: server gains come from memory dependences).
func BenchmarkFig13Components(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := newRunner(b)
		reg := harness.Geomean(r.Compare(ooo.Skylake(), harness.SpecFVPRegOnly))
		mem := harness.Geomean(r.Compare(ooo.Skylake(), harness.SpecFVPMemOnly))
		b.ReportMetric((reg-1)*100, "register_pct")
		b.ReportMetric((mem-1)*100, "memory_pct")
	}
}

// BenchmarkExpAllTypes — §VI-A2: predicting non-loads adds nothing.
func BenchmarkExpAllTypes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner(b)
		g := harness.Geomean(r.Compare(ooo.Skylake(), harness.SpecFVPAllTypes))
		b.ReportMetric((g-1)*100, "alltypes_pct")
	}
}

// BenchmarkExpBranchChains — §VI-A3: mispredicting-branch chains don't pay.
func BenchmarkExpBranchChains(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner(b)
		g := harness.Geomean(r.Compare(ooo.Skylake(), harness.SpecFVPBrChains))
		b.ReportMetric((g-1)*100, "branchchains_pct")
	}
}

// BenchmarkExpEpochSweep — §VI-C1 criticality-epoch sensitivity, on a
// representative subset (the sweep over the full list is cmd/experiments
// -id epoch). Each epoch reports under its own unit, epoch_<N>_pct.
func BenchmarkExpEpochSweep(b *testing.B) {
	subset := subsetWorkloads("omnetpp", "cassandra", "sphinx3", "leela")
	for i := 0; i < b.N; i++ {
		r := newRunner(b)
		r.Workloads = subset
		epochs := []uint64{25_000, 400_000, 6_400_000}
		for j, spec := range r.EpochArms(ooo.Skylake(), epochs) {
			g := harness.Geomean(r.Compare(ooo.Skylake(), spec))
			b.ReportMetric((g-1)*100, fmt.Sprintf("epoch_%d_pct", epochs[j]))
		}
	}
}

// BenchmarkExpTableSizes — §VI-D: VT/VF size sensitivity on a subset.
// Each sizing reports under its own unit, size_<VT>_<VF>_pct.
func BenchmarkExpTableSizes(b *testing.B) {
	subset := subsetWorkloads("omnetpp", "cassandra", "sphinx3", "astar")
	for i := 0; i < b.N; i++ {
		r := newRunner(b)
		r.Workloads = subset
		for _, sz := range []struct{ vt, vf int }{{48, 40}, {96, 128}} {
			spec := harness.SpecFVP
			spec.FVP.VTEntries = sz.vt
			spec.FVP.MR.VFEntries = sz.vf
			g := harness.Geomean(r.Compare(ooo.Skylake(), spec))
			b.ReportMetric((g-1)*100, fmt.Sprintf("size_%d_%d_pct", sz.vt, sz.vf))
		}
	}
}

// BenchmarkExpStallBreakdown — extension: top-down cycle accounting under
// FVP on a representative subset.
func BenchmarkExpStallBreakdown(b *testing.B) {
	subset := subsetWorkloads("omnetpp", "cassandra", "mcf", "leela")
	for i := 0; i < b.N; i++ {
		r := newRunner(b)
		r.Workloads = subset
		pairs := r.Compare(ooo.Skylake(), harness.SpecFVP)
		var dram, dramF uint64
		for _, p := range pairs {
			dram += p.Base.Stats.Breakdown[ooo.CycMemDRAM]
			dramF += p.Pred.Stats.Breakdown[ooo.CycMemDRAM]
		}
		if dram > 0 {
			b.ReportMetric(100*float64(dramF)/float64(dram), "dram_stalls_remaining_pct")
		}
	}
}

// BenchmarkExpAblation — extension: FVP gain with the baseline's
// prefetchers disabled (dependences get longer, FVP gains more).
func BenchmarkExpAblation(b *testing.B) {
	subset := subsetWorkloads("omnetpp", "astar", "sphinx3", "cassandra")
	for i := 0; i < b.N; i++ {
		cfg := ooo.Skylake()
		cfg.Mem.StridePCBits = 0
		cfg.Mem.Streams = 0
		cfg.Name = "Skylake-nopf"
		r := newRunner(b)
		r.Workloads = subset
		g := harness.Geomean(r.Compare(cfg, harness.SpecFVP))
		b.ReportMetric((g-1)*100, "no_prefetch_gain_pct")
	}
}

// BenchmarkExpBaselinePredictors — extension: the wider shoot-out
// (LVP / VTAGE / EVES vs FVP) on a subset.
func BenchmarkExpBaselinePredictors(b *testing.B) {
	subset := subsetWorkloads("omnetpp", "hmmer", "cassandra", "lbm")
	arms := []arm{
		{"LVP", harness.SpecLVP}, {"VTAGE", harness.SpecVTAGE},
		{"EVES", harness.SpecEVES}, {"FVP", harness.SpecFVP},
	}
	for i := 0; i < b.N; i++ {
		r := newRunner(b)
		r.Workloads = subset
		reportArms(b, r, ooo.Skylake(), arms)
	}
}

func subsetWorkloads(names ...string) []workload.Workload {
	out := make([]workload.Workload, 0, len(names))
	for _, n := range names {
		if w, ok := workload.ByName(n); ok {
			out = append(out, w)
		}
	}
	return out
}

// ----------------------------------------------------------------------
// Substrate micro-benchmarks.

// BenchmarkCoreCycleLoop isolates the OOO core's steady-state cycle loop:
// one core is constructed outside the timed region and each iteration
// advances the same simulation by another 50k retired instructions, so
// ns/op and allocs/op reflect only in-loop work — no setup, no cache
// warm-up, no predictor construction. The input is the functional
// generator, as in every production run. It is a quick local check of the
// loop's cost; a claimed cycle-loop speedup is measured end to end with
// bench/ (bench/run.sh).
func BenchmarkCoreCycleLoop(b *testing.B) {
	const instsPerOp = 50_000
	w, _ := workload.ByName("omnetpp")
	p := w.Build()
	c := ooo.New(ooo.Skylake(), core.New(core.DefaultConfig()), prog.NewExec(p), p.BuildMemory())
	c.WarmCaches(p.WarmRanges)
	c.Run(instsPerOp) // reach steady state before timing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(uint64(i+2) * instsPerOp)
	}
	b.ReportMetric(float64(instsPerOp*b.N)/b.Elapsed().Seconds(), "inst/s")
}

// TestCycleLoopAllocs pins the steady-state allocation rate of the cycle
// loop the way BenchmarkCoreCycleLoop measures it: one warmed core advancing
// 50k retired instructions per run. The input is a window recorded into
// memory beforehand, not the live functional generator, whose memory image
// allocates a page the first time the program writes to it, so the count
// is the timing model's own. The SoA window and index-carrying scheduler
// queues leave only incidental growth (a dependence list or the replay
// queue that occasionally outgrows its array); the bound has headroom over
// the observed rate but fails loudly if per-instruction allocation ever
// sneaks back into the loop. Every run must retire its full chunk: a window that
// ran dry would stop the core early and the guard would measure nothing.
func TestCycleLoopAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard skipped in -short mode")
	}
	const instsPerRun = 50_000
	const maxAllocsPerRun = 37
	// The steady-state run, AllocsPerRun's warm-up and its 5 measured runs
	// retire 7 chunks; fetch runs a few hundred micro-ops ahead of them.
	const window = 8 * instsPerRun
	w, _ := workload.ByName("omnetpp")
	p := w.Build()
	rec := make(recordedWindow, window)
	ex := prog.NewExec(p)
	for i := range rec {
		if !ex.Next(&rec[i]) {
			t.Fatalf("record %d insts: the executor halted at %d", window, i)
		}
	}
	c := ooo.New(ooo.Skylake(), core.New(core.DefaultConfig()), &rec, p.BuildMemory())
	c.WarmCaches(p.WarmRanges)
	var target uint64
	run := func() {
		target += instsPerRun
		if st := c.Run(target); st.Retired < target {
			t.Fatalf("core retired %d of %d insts: the recorded window ran dry", st.Retired, target)
		}
	}
	run() // reach steady state before counting
	avg := testing.AllocsPerRun(5, run)
	t.Logf("%.1f allocs per %d insts", avg, instsPerRun)
	if avg > maxAllocsPerRun {
		t.Errorf("steady-state cycle loop: %.1f allocs per %d insts, want <= %d",
			avg, instsPerRun, maxAllocsPerRun)
	}
}

// recordedWindow replays a recorded instruction window, front first.
type recordedWindow []isa.DynInst

func (r *recordedWindow) Next(d *isa.DynInst) bool {
	if len(*r) == 0 {
		return false
	}
	*d = (*r)[0]
	*r = (*r)[1:]
	return true
}

// memBoundInstsPerOp is the chunk of BenchmarkCoreCycleLoopMemBound:
// mcf-class IPC is ~0.08, so 20k instructions is ~250k simulated cycles.
const memBoundInstsPerOp = 20_000

// newMemBoundCore builds the mcf-17 core that BenchmarkCoreCycleLoopMemBound
// and TestSpeedFloorElision time, warms its caches and runs it one chunk
// into steady state. disableElision selects the ticking path.
func newMemBoundCore(disableElision bool) (*ooo.Core, ooo.RunStats) {
	w, _ := workload.ByName("mcf-17")
	p := w.Build()
	cfg := ooo.Skylake()
	cfg.DisableIdleElision = disableElision
	c := ooo.New(cfg, core.New(core.DefaultConfig()), prog.NewExec(p), p.BuildMemory())
	c.WarmCaches(p.WarmRanges)
	return c, c.Run(memBoundInstsPerOp)
}

// BenchmarkCoreCycleLoopMemBound is BenchmarkCoreCycleLoop on an mcf-class
// DRAM-bound pointer chaser — the workload category where the cycle loop
// used to spin through hundreds of empty iterations per head-of-window
// miss, and where idle-cycle elision therefore pays most.
// TestSpeedFloorElision holds the elided loop to ≥1.5× the inst/s of the
// ticking one (ooo.Config.DisableIdleElision). skip_ratio reports the
// fraction of simulated cycles covered by clock jumps.
func BenchmarkCoreCycleLoopMemBound(b *testing.B) {
	c, st0 := newMemBoundCore(false)
	st1 := st0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st1 = c.Run(uint64(i+2) * memBoundInstsPerOp)
	}
	b.ReportMetric(float64(memBoundInstsPerOp*b.N)/b.Elapsed().Seconds(), "inst/s")
	if dc := st1.Cycles - st0.Cycles; dc > 0 {
		b.ReportMetric(float64(st1.SkippedCycles-st0.SkippedCycles)/float64(dc), "skip_ratio")
	}
}

// TestSpeedFloorElision checks idle-cycle elision's floor: on the core of
// BenchmarkCoreCycleLoopMemBound, 100 chunks run at least 1.5× faster
// elided than on the ticking path, in the median of 8 pairs.
func TestSpeedFloorElision(t *testing.T) {
	const chunks = 100
	side := func(disableElision bool) func() time.Duration {
		return func() time.Duration {
			c, _ := newMemBoundCore(disableElision)
			start := time.Now()
			for i := 2; i < chunks+2; i++ {
				c.Run(uint64(i) * memBoundInstsPerOp)
			}
			return time.Since(start)
		}
	}
	speedFloor(t, 8, 1.5, side(true), side(false))
}

// speedFloor checks a speed floor when FVP_SPEED_GATE is set and skips t
// otherwise. It times slow and fast in pairs interleaved pairs,
// alternating which runs first, and fails t when the median of the pairs'
// slow/fast time ratios is under floor. Each side builds its own system
// and returns the time of its timed region.
func speedFloor(t *testing.T, pairs int, floor float64, slow, fast func() time.Duration) {
	t.Helper()
	if os.Getenv("FVP_SPEED_GATE") == "" {
		t.Skip("set FVP_SPEED_GATE=1 to check the speed floor")
	}
	ratios := make([]float64, pairs)
	for i := range ratios {
		var s, f time.Duration
		if i%2 == 0 {
			f, s = fast(), slow()
		} else {
			s, f = slow(), fast()
		}
		ratios[i] = s.Seconds() / f.Seconds()
		t.Logf("pair %d: %v vs %v: %.2fx", i+1, s.Round(time.Millisecond), f.Round(time.Millisecond), ratios[i])
	}
	sort.Float64s(ratios)
	med := (ratios[(pairs-1)/2] + ratios[pairs/2]) / 2
	t.Logf("median %.2fx over %d pairs, floor %.1fx", med, pairs, floor)
	if med < floor {
		t.Errorf("median speed-up %.2fx is under the %.1fx floor", med, floor)
	}
}

// BenchmarkCoreCycleLoopSampled repeats BenchmarkCoreCycleLoop with an
// interval sampler attached, quantifying the observer's attached cost.
// With no observer attached (the benchmark above) the per-cycle hook is
// one predictable compare against a sentinel, nothing more.
func BenchmarkCoreCycleLoopSampled(b *testing.B) {
	const instsPerOp = 50_000
	w, _ := workload.ByName("omnetpp")
	p := w.Build()
	c := ooo.New(ooo.Skylake(), core.New(core.DefaultConfig()), prog.NewExec(p), p.BuildMemory())
	c.WarmCaches(p.WarmRanges)
	c.Run(instsPerOp) // reach steady state before timing
	c.SetObserver(&telemetry.Sampler{Discard: true}, ooo.DefaultObserverInterval)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(uint64(i+2) * instsPerOp)
	}
	b.ReportMetric(float64(instsPerOp*b.N)/b.Elapsed().Seconds(), "inst/s")
}

// BenchmarkSimulatorThroughput measures core-model speed in simulated
// instructions per second on a representative workload.
func BenchmarkSimulatorThroughput(b *testing.B) {
	w, _ := workload.ByName("omnetpp")
	p := w.Build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := prog.NewExec(p)
		c := ooo.New(ooo.Skylake(), core.New(core.DefaultConfig()), ex, p.BuildMemory())
		c.WarmCaches(p.WarmRanges)
		c.Run(50_000)
	}
	b.ReportMetric(float64(50_000*b.N)/b.Elapsed().Seconds(), "inst/s")
}

// BenchmarkSampledPairs runs the bench sampled-sweep's spec shape (a
// 2M-instruction region sampled by 16 units of 2,000 instructions, each
// warmed over 50k, seed 1) for baseline and FVP on three golden
// workloads through fvp.RunContext. One op is the six runs. Each region's
// first run scans it to the units' checkpoints; every later run, the FVP
// arm of the first pass included, restores them from the scan memo.
func BenchmarkSampledPairs(b *testing.B) {
	var specs []fvp.RunSpec
	for _, w := range []string{"omnetpp", "mcf", "cassandra"} {
		for _, p := range []fvp.Predictor{fvp.PredNone, fvp.PredFVP} {
			specs = append(specs, fvp.RunSpec{Workload: w, Machine: fvp.Skylake, Predictor: p,
				MeasureInsts: 2_000_000, SampleUnits: 16, SampleUnitInsts: 2000,
				SampleWarmupInsts: 50_000, SampleSeed: 1, RegionWorkers: 1})
		}
	}
	for i := 0; i < b.N; i++ {
		for _, s := range specs {
			if _, err := fvp.RunContext(context.Background(), s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFunctionalExecutor measures the trace generator alone.
func BenchmarkFunctionalExecutor(b *testing.B) {
	w, _ := workload.ByName("cassandra")
	p := w.Build()
	ex := prog.NewExec(p)
	var d isa.DynInst
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Next(&d)
	}
}

// BenchmarkFVPLookup measures the predictor's front-end lookup path.
func BenchmarkFVPLookup(b *testing.B) {
	f := core.New(core.DefaultConfig())
	d := isa.DynInst{PC: 0x400100, Op: isa.OpLoad, Dst: 1, Src1: 2, Addr: 0x8000, Value: 7}
	ctx := &vp.Ctx{}
	for i := 0; i < 2000; i++ {
		f.Train(&d, ctx, vp.TrainInfo{NearHead: true})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Lookup(&d, ctx)
	}
}

// BenchmarkCompositeLookup measures the four-component prior-art lookup.
func BenchmarkCompositeLookup(b *testing.B) {
	c := vp.NewComposite8KB(1)
	d := isa.DynInst{PC: 0x400100, Op: isa.OpLoad, Dst: 1, Src1: 2, Addr: 0x8000, Value: 7}
	ctx := &vp.Ctx{
		MemPeek:    func(uint64) uint64 { return 7 },
		CacheLevel: func(uint64) int { return 0 },
	}
	for i := 0; i < 2000; i++ {
		c.Train(&d, ctx, vp.TrainInfo{})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(&d, ctx)
	}
}

// BenchmarkTAGEPredict measures the branch predictor hot path.
func BenchmarkTAGEPredict(b *testing.B) {
	tg := branch.NewTAGE(branch.DefaultTAGEConfig())
	var g branch.GlobalHistory
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		taken := i%3 == 0
		_, st := tg.Predict(0x400000, &g)
		tg.Update(0x400000, st, taken)
		g.Push(0x400000, taken)
	}
}

// BenchmarkCacheAccess measures one L1 lookup+fill round.
func BenchmarkCacheAccess(b *testing.B) {
	c := cache.New(cache.Config{Name: "B", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64, Latency: 5})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i*64) % (256 << 10)
		if hit, _ := c.Lookup(uint64(i), addr, false, true); !hit {
			c.Fill(addr, uint64(i), false, false)
		}
	}
}

// BenchmarkDRAMAccess measures the bank-timing model.
func BenchmarkDRAMAccess(b *testing.B) {
	d := dram.New(dram.DDR4_2133())
	now := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = d.Access(now, uint64(i)*64)
	}
}

// BenchmarkServiceCacheHit measures the fvpd service's cache-hit fast
// path: after one priming simulation, every further submit of the same
// RunSpec must be answered from the content-addressed cache at submit
// time (hash + LRU lookup + job bookkeeping, no simulation). This
// anchors the service's perf trajectory: hit latency is what a sweep
// pays for every redundant point.
func BenchmarkServiceCacheHit(b *testing.B) {
	svc := simd.New(simd.Config{Workers: 2, MaxFinishedJobs: 512})
	defer svc.Close()
	spec := fvp.RunSpec{Workload: "omnetpp", Predictor: fvp.PredFVP,
		WarmupInsts: 20_000, MeasureInsts: 50_000}

	submit := func() simd.JobStatus {
		ks, err := simd.KeyRuns([]simd.RunRequest{{RunSpec: spec}})
		if err != nil {
			b.Fatal(err)
		}
		sts, err := svc.Submit(ks)
		if err != nil {
			b.Fatal(err)
		}
		return sts[0]
	}
	prime := submit()
	if st, err := svc.Wait(context.Background(), prime.ID); err != nil || st.State != simd.StateDone {
		b.Fatalf("priming run: state=%s err=%v", st.State, err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := submit(); st.State != simd.StateDone || !st.Cached || st.Metrics == nil {
			b.Fatalf("submit %d not served from cache: %+v", i, st)
		}
	}
	b.StopTimer()
	snap := svc.Snapshot()
	if snap.CacheMisses != 1 || snap.CacheHits != uint64(b.N) {
		b.Fatalf("hits=%d misses=%d, want %d/1", snap.CacheHits, snap.CacheMisses, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "hits/s")
}

// BenchmarkStoreSets measures the dependence-predictor dispatch path.
func BenchmarkStoreSets(b *testing.B) {
	s := memdep.New(12, 8)
	s.Violation(0x400, 0x500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.DispatchStore(0x500, uint64(i))
		s.DispatchLoad(0x400)
		s.CompleteStore(0x500, uint64(i))
	}
}
