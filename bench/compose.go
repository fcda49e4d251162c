package main

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"time"

	"fvp"
	"fvp/internal/harness"
	"fvp/internal/ooo"
	"fvp/internal/prog"
	"fvp/internal/sample"
	"fvp/internal/telemetry"
	"fvp/internal/vp"
	"fvp/internal/workload"
)

// The traced run cannot see inside fvp.RunContext, so it rebuilds each run
// from the public pieces the library calls — Workload.Build,
// prog.NewExec, Program.BuildMemory, ooo.New or Core.Reset,
// Core.WarmCaches and Core.RunCtx, plus Exec.Run, Exec.Checkpoint,
// Checkpoint.Restore and Core.WarmFunctional for sampled runs — and times
// each call as a span. The result must equal fvp.RunContext's exactly:
// the smoke test checks it, and every traced op is held to the same
// expected digest, so the stages measure the same simulation.

// composedRun simulates spec through the public pieces as a "harness.run"
// span under the parent span carried by ctx.
func composedRun(ctx context.Context, t *tracer, key string, spec fvp.RunSpec) (fvp.Metrics, error) {
	n := spec.Normalized()
	w, ok := workload.ByName(n.Workload)
	if !ok {
		return fvp.Metrics{}, fmt.Errorf("no workload %q", n.Workload)
	}
	cfg, pf, err := machineAndPredictor(n)
	if err != nil {
		return fvp.Metrics{}, err
	}
	if n.WarmupMode != string(harness.WarmupDetailed) || n.Regions > 1 || n.SampleTargetCI != 0 || n.Tracer != nil {
		return fvp.Metrics{}, fmt.Errorf("composed runs cover detailed-warmup, single-region, fixed-K specs only")
	}
	run := span{Name: "harness.run", Key: key, Parent: parentOf(ctx), ID: t.newID()}
	r := &composer{t: t, ctx: ctx, key: key, parent: run.ID,
		attr: n.Workload + "/" + string(n.Machine) + "/" + string(n.Predictor)}
	start := time.Now()
	var m fvp.Metrics
	if n.SampleUnits != 0 {
		m, err = r.sampled(w, cfg, pf, n)
	} else {
		m, err = r.detailed(w, cfg, pf, n)
	}
	if err != nil {
		return fvp.Metrics{}, err
	}
	run.Insts, run.FF, run.Cycles, run.Skipped = r.retired, m.FFInsts, m.Cycles, m.SkippedCycles
	if m.Sampling != nil {
		run.Sampled = m.Sampling.SampledInsts
	}
	t.add(run, start, time.Now())
	return m, nil
}

// machineAndPredictor maps the façade names the benchmark's specs use.
func machineAndPredictor(n fvp.RunSpec) (ooo.Config, harness.PredFactory, error) {
	var cfg ooo.Config
	switch n.Machine {
	case fvp.Skylake:
		cfg = ooo.Skylake()
	case fvp.Skylake2X:
		cfg = ooo.Skylake2X()
	default:
		return cfg, nil, fmt.Errorf("composed runs: machine %q", n.Machine)
	}
	switch n.Predictor {
	case fvp.PredNone:
		return cfg, nil, nil
	case fvp.PredFVP:
		return cfg, harness.Factory(harness.SpecFVP), nil
	}
	return cfg, nil, fmt.Errorf("composed runs: predictor %q", n.Predictor)
}

// composer records the stage spans of one composed run.
type composer struct {
	t      *tracer
	ctx    context.Context
	key    string
	parent uint64
	// attr is "workload/machine/predictor", which the FVP-cost metric
	// groups measured regions by.
	attr string
	// retired counts instructions retired by the detailed pipeline.
	retired uint64
}

func (r *composer) stage(name string, fn func(*span)) {
	r.t.do(r.ctx, span{Name: name, Key: r.key, Parent: r.parent}, fn)
}

func (r *composer) detailed(w workload.Workload, cfg ooo.Config, pf harness.PredFactory, n fvp.RunSpec) (fvp.Metrics, error) {
	var p *prog.Program
	r.stage("workload.build", func(*span) { p = w.Build() })
	var ex *prog.Exec
	r.stage("prog.new_exec", func(*span) { ex = prog.NewExec(p) })
	var mem *prog.Memory
	r.stage("prog.build_memory", func(*span) { mem = p.BuildMemory() })
	c := r.acquire(cfg, pf, ex, mem)
	defer release(cfg, c)
	st, mt, _, err := r.segment(c, p, n.WarmupInsts, n.MeasureInsts, false, n.Observer, n.ObserverInterval)
	if err != nil {
		return fvp.Metrics{}, err
	}
	return metricsOf(st, mt, harness.WarmupDetailed), nil
}

// sampled is the SMARTS path: one functional pass checkpoints each unit's
// warmup start, then every unit is restored, warmed functionally with a
// short detailed tail, and measured, one after another as a run with
// RegionWorkers 1 does.
func (r *composer) sampled(w workload.Workload, cfg ooo.Config, pf harness.PredFactory, n fvp.RunSpec) (fvp.Metrics, error) {
	var p *prog.Program
	r.stage("workload.build", func(*span) { p = w.Build() })
	type unitResult struct {
		st ooo.RunStats
		mt vp.Meter
	}
	var units []unitResult
	var ff uint64
	round := func(plan sample.Plan) ([]float64, error) {
		var ex *prog.Exec
		r.stage("prog.new_exec", func(*span) { ex = prog.NewExec(p) })
		cps := make([]*prog.Checkpoint, len(plan.Units))
		warms := make([]uint64, len(plan.Units))
		for i, u := range plan.Units {
			measureStart := n.WarmupInsts + u.Start
			warms[i] = min(n.SampleWarmupInsts, measureStart)
			if at := measureStart - warms[i]; at > ex.Seq() {
				r.stage("prog.scan", func(s *span) { s.Insts = ex.Run(at-ex.Seq(), nil) })
			}
			r.stage("prog.checkpoint", func(*span) { cps[i] = ex.Checkpoint() })
		}
		ff += ex.Seq()
		units = make([]unitResult, len(plan.Units))
		ipcs := make([]float64, len(plan.Units))
		for i, u := range plan.Units {
			var exU *prog.Exec
			var mem *prog.Memory
			r.stage("prog.restore", func(*span) { exU, mem = cps[i].Restore(), cps[i].Memory() })
			c := r.acquire(cfg, pf, exU, mem)
			st, mt, unitFF, err := r.segment(c, p, warms[i], u.Len, true, nil, 0)
			release(cfg, c)
			if err != nil {
				return nil, err
			}
			ff += unitFF
			units[i] = unitResult{st, mt}
			ipcs[i] = st.IPC()
		}
		return ipcs, nil
	}
	out, err := sample.AutoTune(sample.Config{
		MeasureInsts: n.MeasureInsts, Units: n.SampleUnits, UnitInsts: n.SampleUnitInsts, Seed: n.SampleSeed,
	}, n.SampleTargetCI, n.SampleMaxUnits, round)
	if err != nil {
		return fvp.Metrics{}, err
	}
	var st ooo.RunStats
	var mt vp.Meter
	var coverage, accuracy []float64
	for _, u := range units {
		st, mt = sum(st, u.st), sum(mt, u.mt)
		coverage = append(coverage, u.mt.Coverage())
		accuracy = append(accuracy, u.mt.Accuracy())
	}
	m := metricsOf(st, mt, harness.WarmupFunctional)
	m.FFInsts = ff
	m.Sampling = &fvp.SamplingMetrics{
		Units: len(out.Plan.Units), UnitInsts: out.Plan.UnitInsts, WarmupInsts: n.SampleWarmupInsts,
		Seed: n.SampleSeed, TargetCI: n.SampleTargetCI, Rounds: out.Rounds, Converged: out.Converged,
		SampledInsts: st.Retired,
		IPC:          estimate(out.Metric),
		Coverage:     estimate(sample.Estimate(coverage)),
		Accuracy:     estimate(sample.Estimate(accuracy)),
	}
	return m, nil
}

// cores pools cores per configuration as the harness does, so the traced
// path pays the same construction and reset costs.
var cores sync.Map // ooo.Config -> *sync.Pool

func (r *composer) acquire(cfg ooo.Config, pf harness.PredFactory, src ooo.InstSource, mem *prog.Memory) *ooo.Core {
	var c *ooo.Core
	r.stage("ooo.core_reset", func(*span) {
		var pred vp.Predictor
		if pf != nil {
			pred = pf()
		}
		pi, _ := cores.LoadOrStore(cfg, &sync.Pool{})
		if v := pi.(*sync.Pool).Get(); v != nil {
			c = v.(*ooo.Core)
			c.Reset(pred, src, mem)
			return
		}
		c = ooo.New(cfg, pred, src, mem)
	})
	return c
}

func release(cfg ooo.Config, c *ooo.Core) {
	pi, _ := cores.LoadOrStore(cfg, &sync.Pool{})
	pi.(*sync.Pool).Put(c)
}

// segment warms a core and measures measure instructions on it, as the
// harness does: caches first, then a detailed warmup, or a functional one
// ending in a short detailed tail. It returns the measured deltas and the
// instructions warmed functionally.
func (r *composer) segment(c *ooo.Core, p *prog.Program, warm, measure uint64, functional bool, obs fvp.Observer, interval uint64) (ooo.RunStats, vp.Meter, uint64, error) {
	r.stage("ooo.warm_caches", func(*span) { c.WarmCaches(p.WarmRanges) })
	var ff uint64
	tail := warm
	if functional {
		tail = detailTail(warm)
		r.stage("ooo.warm_functional", func(s *span) {
			ff = c.WarmFunctional(warm - tail)
			s.Insts = ff
		})
	}
	var err error
	r.stage("ooo.run_warmup", func(s *span) {
		_, err = c.RunCtx(r.ctx, c.Stats.Retired+tail)
		s.Insts = c.Stats.Retired
	})
	if err != nil {
		return ooo.RunStats{}, vp.Meter{}, 0, err
	}
	warmStats, warmMeter := c.Stats, c.Meter
	if obs != nil {
		c.SetObserver(&telemetry.Sampler{OnSample: obs.OnInterval, Discard: true}, interval)
		defer c.SetObserver(nil, 0)
	}
	var st ooo.RunStats
	measured := span{Name: "ooo.run_measure", Key: r.key, Parent: r.parent, Attr: r.attr}
	r.t.do(r.ctx, measured, func(s *span) {
		_, err = c.RunCtx(r.ctx, warmStats.Retired+measure)
		st = delta(warmStats, c.Stats)
		s.Insts, s.Cycles, s.Skipped = st.Retired, st.Cycles, st.SkippedCycles
	})
	if err != nil {
		return ooo.RunStats{}, vp.Meter{}, 0, err
	}
	c.FinishObservation()
	r.retired += c.Stats.Retired
	return st, delta(warmMeter, c.Meter), ff, nil
}

// detailTail is the harness's detailed slice at the end of a functional
// warmup: an eighth of the window, at most 2048 instructions.
func detailTail(warmup uint64) uint64 { return min(warmup/8, 2048) }

// metricsOf fills the façade's result from a measured region, as the
// library's conversion does.
func metricsOf(st ooo.RunStats, mt vp.Meter, mode harness.WarmupMode) fvp.Metrics {
	return fvp.Metrics{
		IPC:               st.IPC(),
		Coverage:          mt.Coverage(),
		Accuracy:          mt.Accuracy(),
		Cycles:            st.Cycles,
		Insts:             st.Retired,
		Loads:             st.RetiredLoads,
		VPFlushes:         st.VPFlushes,
		BranchMispredicts: st.BranchMispredicts,
		Forwards:          st.Forwards,
		LoadsByLevel:      st.LoadsByLevel,
		CycleBreakdown:    st.Breakdown,
		SkippedCycles:     st.SkippedCycles,
		SkipEvents:        st.SkipEvents,
		WarmupMode:        string(mode),
	}
}

func estimate(m sample.Metric) fvp.SampleEstimate {
	return fvp.SampleEstimate{Mean: m.Mean, StdErr: m.StdErr, CIHalf: m.CIHalf, RelCI: m.RelCI}
}

// delta and sum combine two RunStats or two Meters counter by counter.
func delta[T any](before, after T) T { return combine(after, before, true) }

func sum[T any](a, b T) T { return combine(a, b, false) }

// combine adds or subtracts every uint64 counter of b to or from a,
// descending into arrays and structs, so a counter added to RunStats or
// Meter is covered without a change here.
func combine[T any](a, b T, subtract bool) T {
	var walk func(x, y reflect.Value)
	walk = func(x, y reflect.Value) {
		switch x.Kind() {
		case reflect.Uint64:
			if subtract {
				x.SetUint(x.Uint() - y.Uint())
			} else {
				x.SetUint(x.Uint() + y.Uint())
			}
		case reflect.Array:
			for i := 0; i < x.Len(); i++ {
				walk(x.Index(i), y.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < x.NumField(); i++ {
				walk(x.Field(i), y.Field(i))
			}
		default:
			panic("combine: non-counter field of kind " + x.Kind().String())
		}
	}
	walk(reflect.ValueOf(&a).Elem(), reflect.ValueOf(b))
	return a
}
