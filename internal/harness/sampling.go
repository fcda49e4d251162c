package harness

import (
	"context"
	"time"

	"fvp/internal/ooo"
	"fvp/internal/prog"
	"fvp/internal/sample"
	"fvp/internal/vp"
	"fvp/internal/workload"
)

// DefaultSampleWarmupInsts is the per-unit warmup window of a sampled run
// when Sampling.WarmupInsts is 0. Each unit restores an architectural
// checkpoint into a cold machine, so the warmup must rebuild not just
// caches but the long-history structures — BTB and value tables spanning
// a workload's whole handler working set — whose time constants are far
// longer than a unit. Empirically the sampled IPC converges on the
// full-detail IPC at ~200k warmed instructions across the golden matrix
// (shorter windows leave a systematic bias on the big-footprint
// workloads); the window is clamped near the stream start. Because this
// cost is per-unit and fixed, sampling pays off when MeasureInsts is much
// larger than Units × (WarmupInsts + UnitInsts) — paper-scale regions.
const DefaultSampleWarmupInsts = 200_000

// Sampling configures SMARTS-style sampled simulation of the measured
// region: instead of detail-simulating all MeasureInsts instructions, K
// sample units at systematic positions are simulated in detail (each
// restored from an architectural checkpoint and re-warmed), the gaps are
// covered by the functional checkpoint scan, and the per-unit results are
// aggregated into a population estimate with a 95% confidence interval.
// The zero value disables sampling.
type Sampling struct {
	// Units is the sample-unit count K. 0 with a TargetCI set starts the
	// auto-tune loop at sample.DefaultUnits; 0 without one disables
	// sampling. Minimum sample.MinUnits (a single unit has no variance
	// estimate).
	Units int
	// UnitInsts is the detailed length of each unit
	// (0 = sample.DefaultUnitInsts).
	UnitInsts uint64
	// WarmupInsts is the per-unit warmup run before each unit's measured
	// slice — functional bulk plus detailed tail, exactly like a
	// WarmupFunctional run's warmup (0 = DefaultSampleWarmupInsts).
	WarmupInsts uint64
	// TargetCI, when > 0, auto-tunes: the unit count doubles until the
	// IPC estimate's relative 95% CI half-width is <= TargetCI (e.g. 0.02
	// for ±2%) or MaxUnits is reached.
	TargetCI float64
	// MaxUnits caps auto-tune growth (0 = sample.DefaultMaxUnits). The cap
	// is additionally clamped to MeasureInsts/UnitInsts.
	MaxUnits int
	// Seed selects the systematic phase: units sit at the same
	// seed-derived offset within each frame. Results are deterministic for
	// a fixed Seed regardless of worker count.
	Seed uint64
}

// enabled reports whether the options request a sampled run.
func (s Sampling) enabled() bool { return s.Units != 0 || s.TargetCI != 0 }

// units resolves the starting unit count.
func (s Sampling) units() int {
	if s.Units == 0 {
		return sample.DefaultUnits
	}
	return s.Units
}

// unitInsts resolves the per-unit detailed length.
func (s Sampling) unitInsts() uint64 {
	if s.UnitInsts == 0 {
		return sample.DefaultUnitInsts
	}
	return s.UnitInsts
}

// warmupInsts resolves the per-unit warmup window.
func (s Sampling) warmupInsts() uint64 {
	if s.WarmupInsts == 0 {
		return DefaultSampleWarmupInsts
	}
	return s.WarmupInsts
}

// UnitResult is the measured outcome of one checkpointed unit: a sample
// unit of a sampled run or a region of a region-parallel run.
type UnitResult struct {
	// Index is the unit's plan position.
	Index int
	// StartSeq is the absolute dynamic-instruction position of the unit's
	// first measured instruction (warmup region included).
	StartSeq uint64
	// WarmupInsts is the unit's actual warmup length (clamped near the
	// stream start).
	WarmupInsts uint64
	// IPC is the unit's measured IPC.
	IPC float64
	// Stats and Meter cover the unit's measured slice only.
	Stats ooo.RunStats
	Meter vp.Meter
	// FFInsts / FFSeconds are the unit's own functional-warmup costs
	// (the shared checkpoint scan is accounted in the Result).
	FFInsts   uint64
	FFSeconds float64
}

// SamplingReport is the statistical summary attached to a sampled run's
// Result. The point metrics on the Result itself (IPC, Stats, Meter) are
// the instruction-weighted stitch of the units; the Metric fields here
// carry the per-unit mean, standard error, and 95% CI the fidelity and
// coverage gates consume.
type SamplingReport struct {
	// PlannedUnits, UnitInsts, WarmupInsts, Seed and TargetCI echo the
	// plan of the final round.
	PlannedUnits int
	UnitInsts    uint64
	WarmupInsts  uint64
	Seed         uint64
	TargetCI     float64
	// Rounds counts auto-tune iterations (1 when TargetCI is 0).
	Rounds int
	// Converged is false only when auto-tune hit its unit cap with the
	// IPC interval still wider than TargetCI.
	Converged bool
	// SampledInsts counts the instructions measured in detail across
	// units — the detailed fraction is SampledInsts/MeasureInsts.
	SampledInsts uint64
	// IPC, Coverage and Accuracy are the per-unit population estimates.
	IPC      sample.Metric
	Coverage sample.Metric
	Accuracy sample.Metric
	// Units holds the final round's per-unit results, in plan order.
	Units []UnitResult
}

// unitPlan is one round of the checkpointed-unit executor: the measured
// units, as offsets into the measured region, and how each is warmed.
type unitPlan struct {
	units []sample.Unit
	// warmup is the per-unit warmup window, clamped at the stream start.
	warmup uint64
	mode   WarmupMode
}

// regionPlan covers the measured region with Options.Regions contiguous
// units (one when Regions <= 1), the remainder going to the last, each
// warmed like the run itself. Their measured slices are consecutive and
// their union is exactly the measured span [W, W+M); the one-unit plan
// checkpoints at instruction 0 and warms over the whole warmup region.
func regionPlan(opt Options) unitPlan {
	k := opt.regionCount()
	step := opt.MeasureInsts / uint64(k) // Validate guarantees step >= 1.
	units := make([]sample.Unit, k)
	for i := range units {
		units[i] = sample.Unit{Index: i, Start: uint64(i) * step, Len: step}
	}
	units[k-1].Len = opt.MeasureInsts - step*uint64(k-1)
	return unitPlan{units: units, warmup: opt.WarmupInsts, mode: opt.warmupMode()}
}

// unitRound is one executed plan: the per-unit rows in plan order and
// their stitch, whose fast-forward counts include the checkpoint scan.
type unitRound struct {
	units []UnitResult
	total segment
	pred  string
}

// runSampledCtx is the sampled branch of RunOneCtx: it plans systematic
// units, warms each functionally, and when TargetCI is set lets
// sample.AutoTune re-plan with a doubled unit count until the IPC
// interval meets the target. Each round runs on the checkpointed-unit
// executor (runUnits), and the Result carries a SamplingReport.
func runSampledCtx(ctx context.Context, w workload.Workload, p *prog.Program, coreCfg ooo.Config, pf PredFactory, opt Options) (Result, error) {
	sp := opt.Sampling
	var (
		last      unitRound
		ffInsts   uint64
		ffSeconds float64
	)
	round := func(plan sample.Plan) ([]float64, error) {
		// Sampled units always warm through the functional taps, whatever
		// the run-level warmup mode; the Result records the path that ran.
		rd, err := runUnits(ctx, p, coreCfg, pf, opt, unitPlan{
			units: plan.Units, warmup: sp.warmupInsts(), mode: WarmupFunctional,
		})
		if err != nil {
			return nil, err
		}
		last = rd
		ffInsts += rd.total.ffInsts
		ffSeconds += rd.total.ffSeconds
		values := make([]float64, len(rd.units))
		for i, u := range rd.units {
			values[i] = u.IPC
		}
		return values, nil
	}
	out, err := sample.AutoTune(sample.Config{
		MeasureInsts: opt.MeasureInsts,
		Units:        sp.units(),
		UnitInsts:    sp.unitInsts(),
		Seed:         sp.Seed,
	}, sp.TargetCI, sp.MaxUnits, round)
	if err != nil {
		return Result{}, err
	}

	coverage := make([]float64, len(last.units))
	accuracy := make([]float64, len(last.units))
	for i, u := range last.units {
		coverage[i] = u.Meter.Coverage()
		accuracy[i] = u.Meter.Accuracy()
	}
	total := last.total
	total.ffInsts, total.ffSeconds = ffInsts, ffSeconds
	r := newResult(w, coreCfg, last.pred, WarmupFunctional, total)
	r.Sampling = &SamplingReport{
		PlannedUnits: len(out.Plan.Units),
		UnitInsts:    out.Plan.UnitInsts,
		WarmupInsts:  sp.warmupInsts(),
		Seed:         sp.Seed,
		TargetCI:     sp.TargetCI,
		Rounds:       out.Rounds,
		Converged:    out.Converged,
		SampledInsts: total.stats.Retired,
		IPC:          out.Metric,
		Coverage:     sample.Estimate(coverage),
		Accuracy:     sample.Estimate(accuracy),
		Units:        last.units,
	}
	return r, nil
}

// runUnits is the checkpointed-unit executor every run goes through: one
// architectural pass over the program checkpoints each unit's warmup
// start; each unit is then restored, warmed and detail-simulated on its
// own core, up to RegionWorkers at once, and the per-unit stats are
// stitched by field-wise addition. Stitching is exact for additive
// counters, so the aggregate IPC is the instruction-weighted mean of the
// unit IPCs.
func runUnits(ctx context.Context, p *prog.Program, coreCfg ooo.Config, pf PredFactory, opt Options, plan unitPlan) (unitRound, error) {
	// Checkpoint scan: pure architectural execution visits each unit's
	// warmup start in ascending order. Unit i's measured slice begins at
	// absolute position WarmupInsts + Start_i; its warmup begins
	// plan.warmup instructions earlier, clamped at the stream start (only
	// reachable when the run-level warmup region is shorter than the unit
	// warmup). Only the stepping is timed as fast-forward.
	ex := prog.NewExec(p)
	cps := make([]*prog.Checkpoint, len(plan.units))
	warms := make([]uint64, len(plan.units))
	var scan time.Duration
	for i, u := range plan.units {
		measureStart := opt.WarmupInsts + u.Start
		warms[i] = min(plan.warmup, measureStart)
		if at := measureStart - warms[i]; at > ex.Seq() {
			t0 := time.Now()
			ex.Run(at-ex.Seq(), nil)
			scan += time.Since(t0)
		}
		cps[i] = ex.Checkpoint()
	}
	rd := unitRound{
		units: make([]UnitResult, len(plan.units)),
		total: segment{ffInsts: ex.Seq(), ffSeconds: scan.Seconds()},
		pred:  "baseline",
	}

	errs := make([]error, len(plan.units))
	forEach(len(plan.units), opt.RegionWorkers, func(i int) {
		var pred vp.Predictor
		if pf != nil {
			pred = pf()
			if i == 0 {
				rd.pred = pred.Name()
			}
		}
		unitOpt := opt
		unitOpt.WarmupMode = plan.mode
		unitOpt.WarmupInsts = warms[i]
		seg, err := runSegmentCtx(ctx, coreCfg, pred, cps[i].Restore(), cps[i].Memory(), p.WarmRanges, unitOpt, plan.units[i].Len)
		if err != nil {
			errs[i] = err
			return
		}
		rd.units[i] = UnitResult{
			Index:       i,
			StartSeq:    cps[i].Seq() + warms[i],
			WarmupInsts: warms[i],
			IPC:         seg.stats.IPC(),
			Stats:       seg.stats,
			Meter:       seg.meter,
			FFInsts:     seg.ffInsts,
			FFSeconds:   seg.ffSeconds,
		}
	})
	for _, err := range errs {
		if err != nil {
			return unitRound{}, err
		}
	}
	for _, u := range rd.units {
		rd.total.stats = statsAdd(rd.total.stats, u.Stats)
		rd.total.meter = meterAdd(rd.total.meter, u.Meter)
		rd.total.ffInsts += u.FFInsts
		rd.total.ffSeconds += u.FFSeconds
	}
	return rd, nil
}

// RegionFidelity compares a region-stitched result against a monolithic
// run of the same spec: it returns the relative IPC error
// |stitched - mono| / mono. The warming-fidelity gate in CI holds the
// geomean of this error across the golden matrix under its threshold.
func RegionFidelity(stitched, mono Result) float64 {
	if mono.IPC == 0 {
		return 0
	}
	d := stitched.IPC - mono.IPC
	if d < 0 {
		d = -d
	}
	return d / mono.IPC
}
