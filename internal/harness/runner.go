// Package harness runs workloads × core configs × predictors and derives
// the paper's metrics (IPC speedup over baseline, load coverage, accuracy),
// plus the per-figure experiment drivers for the evaluation section.
package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fvp/internal/core"
	"fvp/internal/ooo"
	"fvp/internal/prog"
	"fvp/internal/telemetry"
	"fvp/internal/vp"
	"fvp/internal/workload"
)

// PredFactory builds a fresh predictor per run (predictors are stateful and
// single-core).
type PredFactory func() vp.Predictor

// Family is a predictor design: FVP, standalone Memory Renaming, or a
// prior-art predictor at the one sizing the evaluation uses.
type Family uint8

// The predictor families. FamilyNone, the zero value, is the baseline.
const (
	FamilyNone Family = iota
	FamilyFVP
	FamilyMR
	FamilyComposite8KB
	FamilyComposite1KB
	FamilyLVP
	FamilyStride
	FamilyVTAGE
	FamilyEVES
)

// Spec is one predictor arm of the evaluation. It is comparable, so two
// arms that build the same predictor are equal and share memoized
// suites. FVP arms carry their core.Config and MR arms their
// vp.MRConfig; a field the family does not read stays zero. The zero
// Spec is the baseline.
type Spec struct {
	Family Family
	FVP    core.Config
	MR     vp.MRConfig
}

// The named arms: the baseline, FVP and its variants from Figs 12/13 and
// §VI-A, each the default configuration with one field changed, and the
// prior art.
var (
	SpecNone         = Spec{}
	SpecFVP          = Spec{Family: FamilyFVP, FVP: core.DefaultConfig()}
	SpecFVPRegOnly   = fvpArm(func(c *core.Config) { c.DisableMR = true })
	SpecFVPMemOnly   = fvpArm(func(c *core.Config) { c.MROnly = true })
	SpecFVPL1Miss    = fvpArm(func(c *core.Config) { c.Policy = core.CritL1Miss })
	SpecFVPL1MissOnl = fvpArm(func(c *core.Config) { c.Policy = core.CritL1MissOnly })
	SpecFVPOracle    = fvpArm(func(c *core.Config) { c.Policy = core.CritOracle })
	SpecFVPAllTypes  = fvpArm(func(c *core.Config) { c.AllTypes = true })
	SpecFVPBrChains  = fvpArm(func(c *core.Config) { c.BranchChains = true })
	SpecMR8KB        = Spec{Family: FamilyMR, MR: vp.MR8KBConfig()}
	SpecMR1KB        = Spec{Family: FamilyMR, MR: vp.MR1KBConfig()}
	SpecComp8KB      = Spec{Family: FamilyComposite8KB}
	SpecComp1KB      = Spec{Family: FamilyComposite1KB}
	SpecLVP          = Spec{Family: FamilyLVP}
	SpecStride       = Spec{Family: FamilyStride}
	SpecVTAGE        = Spec{Family: FamilyVTAGE}
	SpecEVES         = Spec{Family: FamilyEVES}
)

// fvpArm is SpecFVP with edit applied to its configuration.
func fvpArm(edit func(c *core.Config)) Spec {
	s := SpecFVP
	edit(&s.FVP)
	return s
}

// Factory returns the constructor for an arm, or nil for the baseline,
// which runs without a predictor.
func Factory(s Spec) PredFactory {
	switch s.Family {
	case FamilyNone:
		return nil
	case FamilyFVP:
		return func() vp.Predictor { return core.New(s.FVP) }
	case FamilyMR:
		return func() vp.Predictor { return vp.NewMR(s.MR) }
	case FamilyComposite8KB:
		return func() vp.Predictor { return vp.NewComposite8KB(7) }
	case FamilyComposite1KB:
		return func() vp.Predictor { return vp.NewComposite1KB(7) }
	case FamilyLVP:
		return func() vp.Predictor { return vp.NewLVP(64, 2, 7) }
	case FamilyStride:
		return func() vp.Predictor { return vp.NewStride(6) }
	case FamilyVTAGE:
		return func() vp.Predictor { return vp.NewVTAGE(256, 96, 21) }
	case FamilyEVES:
		return func() vp.Predictor { return vp.NewEVES(256, 80, 6, 23) }
	}
	panic(fmt.Sprintf("harness: unknown predictor family %d", s.Family))
}

// Result is the outcome of one (workload, core, predictor) run, measured
// after warmup.
type Result struct {
	Workload  string
	Category  workload.Category
	Core      string
	Predictor string
	// WarmupMode records which warmup path produced this result
	// ("detailed" or "functional").
	WarmupMode WarmupMode

	IPC      float64
	Coverage float64
	Accuracy float64
	Stats    ooo.RunStats
	Meter    vp.Meter

	// FFInsts counts instructions that were fast-forwarded functionally:
	// the checkpoint scan up to each unit's warmup start, plus the
	// functional bulk of each unit's warmup. Zero for a plain detailed
	// run, which checkpoints at instruction 0 and scans nothing. A run
	// whose checkpoints come from the scan memo counts the reused scan.
	FFInsts uint64
	// FFSeconds is the wall-clock this run spent in that scan and those
	// warmups (building the program image is not counted): on a scan
	// memo hit, only the wait for the memoized scan. Being a wall-time
	// measurement it is excluded from determinism comparisons.
	FFSeconds float64
	// Regions holds the per-region results of a region-parallel run
	// (nil when Options.Regions <= 1).
	Regions []UnitResult
	// Sampling holds the statistical summary of a sampled run
	// (nil when Options.Sampling is disabled).
	Sampling *SamplingReport
}

// Options controls run length.
type Options struct {
	// WarmupInsts retire before measurement starts.
	WarmupInsts uint64
	// MeasureInsts is the measured region length.
	MeasureInsts uint64
	// Parallelism bounds concurrent runs (0 = GOMAXPROCS).
	Parallelism int

	// OnSample, if non-nil, streams per-interval telemetry samples from
	// the measured region (the tap attaches after warmup, so the series
	// covers exactly what the Result's deltas cover). The callback runs on
	// the simulating goroutine and must not block. Observation never
	// perturbs timing — the golden-stat tests hold results byte-identical
	// with it on or off.
	OnSample func(telemetry.Sample)
	// SampleInterval is the sampling period in cycles; 0 selects
	// ooo.DefaultObserverInterval.
	SampleInterval uint64
	// Tracer, if non-nil, receives per-instruction pipeline events from
	// the measured region (e.g. a telemetry.PipeTrace for Chrome trace
	// export). Like OnSample, it reads the machine without perturbing it.
	Tracer ooo.PipeTracer

	// WarmupMode selects detailed (default) or functional warmup.
	WarmupMode WarmupMode
	// Regions splits the measured region into this many contiguous
	// slices, each restored from an architectural checkpoint, warmed
	// independently (per WarmupMode) and detail-simulated in parallel;
	// the per-region stats are stitched into the Result. 0 or 1 is the
	// one-region plan: a single slice checkpointed at instruction 0, the
	// plain run. Stitched results are deterministic for a fixed region
	// count regardless of worker count, but differ from the single-region
	// run (each region re-warms from cold structures).
	Regions int
	// RegionWorkers bounds how many regions simulate concurrently
	// (0 = GOMAXPROCS); sampled runs reuse it to bound concurrent units.
	RegionWorkers int

	// Sampling, when enabled, replaces full-detail measurement with
	// SMARTS-style sampled simulation: only K systematic sample units are
	// detail-simulated and the Result carries a SamplingReport with
	// confidence intervals. Mutually exclusive with Regions > 1 and with
	// observation hooks (OnSample / Tracer), which assume a contiguous
	// measured stream.
	Sampling Sampling
}

// DefaultOptions is sized so predictors reach steady state while a full
// 60-workload sweep stays tractable.
func DefaultOptions() Options {
	return Options{WarmupInsts: 100_000, MeasureInsts: 300_000}
}

// corePools holds one free-list of reusable cores per core configuration
// (ooo.Config is comparable, so it keys the map directly). Every run draws
// its core here and Resets it instead of constructing a fresh ~6 MB core;
// Reset is observationally identical to construction (enforced by the ooo
// reset-equivalence and harness determinism tests), so pooling changes
// allocation behavior, never results.
var corePools sync.Map // ooo.Config -> *sync.Pool

func acquireCore(cfg ooo.Config, pred vp.Predictor, src ooo.InstSource, mem *prog.Memory) *ooo.Core {
	pi, ok := corePools.Load(cfg)
	if !ok {
		pi, _ = corePools.LoadOrStore(cfg, &sync.Pool{})
	}
	if v := pi.(*sync.Pool).Get(); v != nil {
		c := v.(*ooo.Core)
		c.Reset(pred, src, mem)
		return c
	}
	return ooo.New(cfg, pred, src, mem)
}

func releaseCore(cfg ooo.Config, c *ooo.Core) {
	if pi, ok := corePools.Load(cfg); ok {
		pi.(*sync.Pool).Put(c)
	}
}

// statsDelta subtracts snapshots field-wise.
func statsDelta(a, b ooo.RunStats) ooo.RunStats {
	d := b
	d.Cycles -= a.Cycles
	d.Retired -= a.Retired
	d.RetiredLoads -= a.RetiredLoads
	d.RetiredStores -= a.RetiredStores
	d.Fetched -= a.Fetched
	d.BranchMispredicts -= a.BranchMispredicts
	d.VPFlushes -= a.VPFlushes
	d.MemOrderFlushes -= a.MemOrderFlushes
	d.Forwards -= a.Forwards
	d.RetireStallCycles -= a.RetireStallCycles
	d.EmptyWindowCycles -= a.EmptyWindowCycles
	for i := range d.LoadsByLevel {
		d.LoadsByLevel[i] -= a.LoadsByLevel[i]
	}
	d.StallHeadLoads -= a.StallHeadLoads
	d.StallHeadOther -= a.StallHeadOther
	d.SkippedCycles -= a.SkippedCycles
	d.SkipEvents -= a.SkipEvents
	for i := range d.Breakdown {
		d.Breakdown[i] -= a.Breakdown[i]
	}
	return d
}

// statsAdd sums snapshots field-wise (the inverse pairing of statsDelta).
func statsAdd(a, b ooo.RunStats) ooo.RunStats {
	d := a
	d.Cycles += b.Cycles
	d.Retired += b.Retired
	d.RetiredLoads += b.RetiredLoads
	d.RetiredStores += b.RetiredStores
	d.Fetched += b.Fetched
	d.BranchMispredicts += b.BranchMispredicts
	d.VPFlushes += b.VPFlushes
	d.MemOrderFlushes += b.MemOrderFlushes
	d.Forwards += b.Forwards
	d.RetireStallCycles += b.RetireStallCycles
	d.EmptyWindowCycles += b.EmptyWindowCycles
	for i := range d.LoadsByLevel {
		d.LoadsByLevel[i] += b.LoadsByLevel[i]
	}
	d.StallHeadLoads += b.StallHeadLoads
	d.StallHeadOther += b.StallHeadOther
	d.SkippedCycles += b.SkippedCycles
	d.SkipEvents += b.SkipEvents
	for i := range d.Breakdown {
		d.Breakdown[i] += b.Breakdown[i]
	}
	return d
}

func meterDelta(a, b vp.Meter) vp.Meter {
	return vp.Meter{
		Loads:          b.Loads - a.Loads,
		Insts:          b.Insts - a.Insts,
		PredictedLoads: b.PredictedLoads - a.PredictedLoads,
		PredictedOther: b.PredictedOther - a.PredictedOther,
		Correct:        b.Correct - a.Correct,
		Wrong:          b.Wrong - a.Wrong,
		Flushes:        b.Flushes - a.Flushes,
	}
}

func meterAdd(a, b vp.Meter) vp.Meter {
	return vp.Meter{
		Loads:          a.Loads + b.Loads,
		Insts:          a.Insts + b.Insts,
		PredictedLoads: a.PredictedLoads + b.PredictedLoads,
		PredictedOther: a.PredictedOther + b.PredictedOther,
		Correct:        a.Correct + b.Correct,
		Wrong:          a.Wrong + b.Wrong,
		Flushes:        a.Flushes + b.Flushes,
	}
}

// RunOneCtx simulates one workload on one core with one predictor. The
// simulation's cycle loop polls ctx and the partial run is abandoned (zero
// Result, ctx.Err()) when it fires; both the warmup and the measured
// region honor it, so a canceled service job stops consuming cycles
// promptly. Degenerate Options are rejected up front with an
// *InvalidOptionsError.
//
// Every run goes through the checkpointed-unit executor (runUnits). A
// sampled run plans its sample units (runSampledCtx); any other run is
// regionPlan's full-coverage plan of Options.Regions units, which for a
// plain run is one unit checkpointed at instruction 0.
func RunOneCtx(ctx context.Context, w workload.Workload, coreCfg ooo.Config, pf PredFactory, opt Options) (Result, error) {
	if err := opt.Validate(); err != nil {
		return Result{}, err
	}
	p := w.Build()
	if opt.Sampling.enabled() {
		return runSampledCtx(ctx, w, p, coreCfg, pf, opt)
	}
	plan := regionPlan(opt)
	rd, err := runUnits(ctx, w, p, coreCfg, pf, opt, plan)
	if err != nil {
		return Result{}, err
	}
	r := newResult(w, coreCfg, rd.pred, plan.mode, rd.total)
	if len(rd.units) > 1 {
		r.Regions = rd.units
	}
	return r, nil
}

// newResult assembles the Result of one run from its measured segment.
func newResult(w workload.Workload, coreCfg ooo.Config, pred string, mode WarmupMode, seg segment) Result {
	return Result{
		Workload:   w.Name,
		Category:   w.Category,
		Core:       coreCfg.Name,
		Predictor:  pred,
		WarmupMode: mode,
		IPC:        seg.stats.IPC(),
		Coverage:   seg.meter.Coverage(),
		Accuracy:   seg.meter.Accuracy(),
		Stats:      seg.stats,
		Meter:      seg.meter,
		FFInsts:    seg.ffInsts,
		FFSeconds:  seg.ffSeconds,
	}
}

// segment is the measured outcome of one (warmup, measure) slice on one
// core.
type segment struct {
	stats     ooo.RunStats
	meter     vp.Meter
	ffInsts   uint64
	ffSeconds float64
}

// runSegmentCtx simulates one contiguous (warmup, measure) slice: it
// acquires a core over ex (whose architectural memory image is mem), warms
// caches and then the machine per opt.WarmupMode, and measures measure
// instructions. It simulates each unit of the checkpointed-unit executor.
func runSegmentCtx(ctx context.Context, coreCfg ooo.Config, pred vp.Predictor, ex *prog.Exec, mem *prog.Memory, warmRanges []prog.WarmRange, opt Options, measure uint64) (segment, error) {
	c := acquireCore(coreCfg, pred, ex, mem)
	defer releaseCore(coreCfg, c)
	c.WarmCaches(warmRanges)

	var seg segment
	if opt.warmupMode() == WarmupFunctional {
		tail := detailTail(opt.WarmupInsts)
		t0 := time.Now()
		seg.ffInsts = c.WarmFunctional(opt.WarmupInsts - tail)
		seg.ffSeconds = time.Since(t0).Seconds()
		// Detailed tail: re-converge timing-born predictor state (FVP
		// criticality, confidence counters) on the real pipeline just
		// before measurement — the classic sampled-simulation split of
		// functional warming plus a short detailed warmup.
		if _, err := c.RunCtx(ctx, c.Stats.Retired+tail); err != nil {
			return segment{}, err
		}
	} else if _, err := c.RunCtx(ctx, opt.WarmupInsts); err != nil {
		return segment{}, err
	}
	warmStats := c.Stats
	warmMeter := c.Meter
	if opt.OnSample != nil || opt.Tracer != nil {
		if opt.OnSample != nil {
			c.SetObserver(&telemetry.Sampler{OnSample: opt.OnSample, Discard: true}, opt.SampleInterval)
		}
		c.SetTracer(opt.Tracer)
		// Detach before the core returns to the pool, even on cancellation.
		defer func() {
			c.SetObserver(nil, 0)
			c.SetTracer(nil)
		}()
	}
	// The measure bound counts from what warmup actually retired: in
	// detailed mode that is exactly WarmupInsts (making this identical to
	// the historical WarmupInsts+MeasureInsts bound), in functional mode
	// retirement hasn't moved and the bound is just the measured length.
	if _, err := c.RunCtx(ctx, warmStats.Retired+measure); err != nil {
		return segment{}, err
	}
	c.FinishObservation()
	seg.stats = statsDelta(warmStats, c.Stats)
	seg.meter = meterDelta(warmMeter, c.Meter)
	return seg, nil
}

// RunSuiteCtx runs every workload in ws with the given core and
// predictor, up to opt.Parallelism at once, preserving input order. Every
// run polls ctx, and the first error is returned along with whatever
// results completed (failed slots are zero Results).
func RunSuiteCtx(ctx context.Context, ws []workload.Workload, coreCfg ooo.Config, pf PredFactory, opt Options) ([]Result, error) {
	out := make([]Result, len(ws))
	errs := make([]error, len(ws))
	forEach(len(ws), opt.Parallelism, func(i int) {
		out[i], errs[i] = RunOneCtx(ctx, ws[i], coreCfg, pf, opt)
	})
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// forEach calls fn(i) for every i in [0, n), on at most workers goroutines
// at once (0 = GOMAXPROCS). The calling goroutine is one of them, so one
// item or one worker runs on the caller and starts no goroutine.
func forEach(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for range min(workers, n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// Pair holds a baseline and predictor result for one workload.
type Pair struct {
	Base, Pred Result
}

// Speedup returns predictor IPC over baseline IPC.
func (p Pair) Speedup() float64 {
	if p.Base.IPC == 0 {
		return 1
	}
	return p.Pred.IPC / p.Base.IPC
}

// Geomean returns the geometric mean of the pairs' speedups.
func Geomean(pairs []Pair) float64 {
	if len(pairs) == 0 {
		return 1
	}
	sumLog := 0.0
	for _, p := range pairs {
		sumLog += logOf(p.Speedup())
	}
	return expOf(sumLog / float64(len(pairs)))
}

// MeanCoverage returns the arithmetic mean load coverage of the predictor
// runs.
func MeanCoverage(pairs []Pair) float64 {
	if len(pairs) == 0 {
		return 0
	}
	s := 0.0
	for _, p := range pairs {
		s += p.Pred.Coverage
	}
	return s / float64(len(pairs))
}

// ByCategory groups pairs by workload category.
func ByCategory(pairs []Pair) map[workload.Category][]Pair {
	m := make(map[workload.Category][]Pair)
	for _, p := range pairs {
		m[p.Base.Category] = append(m[p.Base.Category], p)
	}
	return m
}

func (r Result) String() string {
	return fmt.Sprintf("%-16s %-10s %-16s IPC=%.3f cov=%.1f%% acc=%.2f%%",
		r.Workload, r.Core, r.Predictor, r.IPC, r.Coverage*100, r.Accuracy*100)
}

// detailTailMax bounds the detailed slice at the end of a functional
// warmup window. One eighth of the window re-settles confidence counters
// and criticality tables without giving back the O(insts) win; the cap
// keeps paper-scale windows (tens of millions of instructions) from
// paying more than a fixed detailed cost.
const detailTailMax = 2048

// detailTail returns how many of warmup's final instructions run on the
// detailed pipeline when WarmupMode is functional.
func detailTail(warmup uint64) uint64 {
	tail := warmup / 8
	if tail > detailTailMax {
		tail = detailTailMax
	}
	return tail
}
