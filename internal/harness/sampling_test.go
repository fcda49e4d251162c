package harness

import (
	"errors"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"fvp/internal/ooo"
	"fvp/internal/telemetry"
	"fvp/internal/workload"
)

func TestSamplingOptionsValidate(t *testing.T) {
	base := Options{WarmupInsts: 10_000, MeasureInsts: 100_000}
	with := func(s Sampling) Options { o := base; o.Sampling = s; return o }
	cases := []struct {
		name  string
		opt   Options
		field string // "" = valid
	}{
		{"one unit", with(Sampling{Units: 1}), "Sampling.Units"},
		{"negative units", with(Sampling{Units: -2}), "Sampling.Units"},
		{"target >= 1", with(Sampling{TargetCI: 1.5}), "Sampling.TargetCI"},
		{"negative target", with(Sampling{Units: 4, TargetCI: -0.1}), "Sampling.TargetCI"},
		{"negative cap", with(Sampling{Units: 4, MaxUnits: -1}), "Sampling.MaxUnits"},
		{"budget over population", with(Sampling{Units: 4, UnitInsts: 30_000}), "Sampling.Units"},
		{"sampling with regions", func() Options {
			o := with(Sampling{Units: 4})
			o.Regions = 2
			return o
		}(), "Sampling"},
		{"sampling with observer", func() Options {
			o := with(Sampling{Units: 4})
			o.OnSample = func(telemetry.Sample) {}
			return o
		}(), "Sampling"},
		{"sampling with tracer", func() Options {
			o := with(Sampling{Units: 4})
			o.Tracer = &telemetry.PipeTrace{}
			return o
		}(), "Sampling"},
		{"valid units", with(Sampling{Units: 8}), ""},
		{"valid target only", with(Sampling{TargetCI: 0.02}), ""},
		{"valid full", with(Sampling{Units: 4, UnitInsts: 2_000, WarmupInsts: 1_000, TargetCI: 0.05, MaxUnits: 32, Seed: 7}), ""},
		{"disabled zero value", base, ""},
	}
	for _, c := range cases {
		err := c.opt.Validate()
		if c.field == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		var ie *InvalidOptionsError
		if !errors.As(err, &ie) {
			t.Errorf("%s: got %v, want *InvalidOptionsError", c.name, err)
			continue
		}
		if ie.Field != c.field {
			t.Errorf("%s: field = %q, want %q", c.name, ie.Field, c.field)
		}
	}
}

// Sampled-run structure: K units in plan order, each measuring ~UnitInsts,
// stitched stats equal to the field-wise sum, a populated report, and a
// detailed budget far below the measured region.
func TestSampledRunStructure(t *testing.T) {
	w, _ := workload.ByName("omnetpp")
	opt := Options{
		WarmupInsts: 5_000, MeasureInsts: 200_000,
		Sampling: Sampling{Units: 8, UnitInsts: 1_000, WarmupInsts: 2_000, Seed: 1},
	}
	r := runOne(t, w, ooo.Skylake(), Factory(SpecFVP), opt)
	sr := r.Sampling
	if sr == nil {
		t.Fatal("sampled run returned no SamplingReport")
	}
	if sr.PlannedUnits != 8 || len(sr.Units) != 8 {
		t.Fatalf("planned %d units with %d results, want 8", sr.PlannedUnits, len(sr.Units))
	}
	if sr.Rounds != 1 || !sr.Converged {
		t.Errorf("fixed-K run: rounds=%d converged=%v", sr.Rounds, sr.Converged)
	}
	var sum ooo.RunStats
	prevStart := uint64(0)
	for i, u := range sr.Units {
		if u.Index != i {
			t.Errorf("unit %d: Index = %d", i, u.Index)
		}
		if i > 0 && u.StartSeq <= prevStart {
			t.Errorf("unit %d: StartSeq %d not increasing past %d", i, u.StartSeq, prevStart)
		}
		prevStart = u.StartSeq
		// Width-granular retirement may overshoot each unit's bound by up
		// to a commit group.
		if u.Stats.Retired < 1_000 || u.Stats.Retired > 1_000+16 {
			t.Errorf("unit %d: measured %d insts, want ~1000", i, u.Stats.Retired)
		}
		if u.IPC <= 0 {
			t.Errorf("unit %d: IPC = %v", i, u.IPC)
		}
		if u.WarmupInsts != 2_000 {
			t.Errorf("unit %d: warmed %d insts, want 2000", i, u.WarmupInsts)
		}
		sum = statsAdd(sum, u.Stats)
	}
	if !reflect.DeepEqual(sum, r.Stats) {
		t.Errorf("stitched stats != sum of units:\n got: %+v\nwant: %+v", r.Stats, sum)
	}
	if sr.SampledInsts != r.Stats.Retired {
		t.Errorf("SampledInsts = %d, stitched Retired = %d", sr.SampledInsts, r.Stats.Retired)
	}
	// The whole point: detailed work is a small fraction of the region.
	if sr.SampledInsts > opt.MeasureInsts/10 {
		t.Errorf("sampled %d of %d insts — not actually sampling", sr.SampledInsts, opt.MeasureInsts)
	}
	if r.FFInsts == 0 {
		t.Error("sampled run reported no fast-forwarded instructions (checkpoint scan missing?)")
	}
	if sr.IPC.Mean <= 0 || sr.IPC.StdErr < 0 {
		t.Errorf("IPC estimate %+v", sr.IPC)
	}
	if r.WarmupMode != WarmupFunctional {
		t.Errorf("WarmupMode = %q, want functional", r.WarmupMode)
	}
}

// For a fixed seed, the sampled result must not depend on how many workers
// executed the units.
func TestSamplingDeterministicAcrossWorkers(t *testing.T) {
	w, _ := workload.ByName("gcc")
	base := Options{
		WarmupInsts: 5_000, MeasureInsts: 120_000,
		Sampling: Sampling{Units: 6, UnitInsts: 1_000, WarmupInsts: 2_000, Seed: 3},
	}
	// Each run scans afresh: TestScanMemoMatchesFresh covers memo hits.
	var ref Result
	for i, workers := range []int{1, 2, 4} {
		opt := base
		opt.RegionWorkers = workers
		resetScanMemo()
		got := stripWallClock(runOne(t, w, ooo.Skylake(), Factory(SpecFVP), opt))
		if i == 0 {
			ref = got
			continue
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d diverged from workers=1:\n got: %+v\nwant: %+v", workers, got, ref)
		}
	}
	// And the same run twice must reproduce bit-for-bit.
	resetScanMemo()
	again := stripWallClock(runOne(t, w, ooo.Skylake(), Factory(SpecFVP), base))
	base.RegionWorkers = 1
	if !reflect.DeepEqual(again, ref) {
		t.Error("same seed reran differently")
	}
}

// A different seed must move the systematic phase (and so, in general, the
// per-unit observations).
func TestSamplingSeedSensitive(t *testing.T) {
	w, _ := workload.ByName("mcf")
	opt := Options{
		WarmupInsts: 2_000, MeasureInsts: 80_000,
		Sampling: Sampling{Units: 4, UnitInsts: 500, Seed: 1},
	}
	a := runOne(t, w, ooo.Skylake(), Factory(SpecFVP), opt)
	opt.Sampling.Seed = 2
	b := runOne(t, w, ooo.Skylake(), Factory(SpecFVP), opt)
	if a.Sampling.Units[0].StartSeq == b.Sampling.Units[0].StartSeq {
		t.Error("adjacent seeds placed unit 0 identically")
	}
}

// Auto-tune must grow K until the IPC interval meets the target, and the
// report must reflect the growth.
func TestSamplingAutoTune(t *testing.T) {
	w, _ := workload.ByName("hmmer")
	opt := Options{
		WarmupInsts: 2_000, MeasureInsts: 300_000,
		Sampling: Sampling{Units: 2, UnitInsts: 1_000, TargetCI: 0.05, MaxUnits: 64, Seed: 9},
	}
	r := runOne(t, w, ooo.Skylake(), Factory(SpecFVP), opt)
	sr := r.Sampling
	if sr == nil {
		t.Fatal("no report")
	}
	if !sr.Converged {
		t.Fatalf("did not converge: relCI %.4f at K=%d after %d rounds",
			sr.IPC.RelCI, sr.PlannedUnits, sr.Rounds)
	}
	if sr.IPC.RelCI > opt.Sampling.TargetCI {
		t.Errorf("converged with relCI %.4f > target %.2f", sr.IPC.RelCI, opt.Sampling.TargetCI)
	}
	if len(sr.Units) != sr.PlannedUnits {
		t.Errorf("report has %d units, planned %d", len(sr.Units), sr.PlannedUnits)
	}
}

// samplingFidelityWorkloads is the golden matrix of the sampling gate —
// the same 13 workloads the warming-fidelity gate covers.
var samplingFidelityWorkloads = fidelityWorkloads

// TestSamplingFidelityGate holds sampled IPC within 2% geomean of the
// full-detail run across the golden workloads. Like the warming gate it is
// opt-in via FVP_SAMPLING_GATE=1 (CI's sampling-fidelity job) — a full
// sweep at gate sizes is too slow for the every-push test job.
func TestSamplingFidelityGate(t *testing.T) {
	if os.Getenv("FVP_SAMPLING_GATE") == "" {
		t.Skip("set FVP_SAMPLING_GATE=1 to run the sampling-fidelity gate")
	}
	// The region must be long enough for sampling to be meaningful (and
	// for the per-unit warmup, which rebuilds long-history machine state,
	// to fit between units); the gate runs at 1M measured instructions
	// with the default 200k-inst unit warmup.
	const (
		warm    = 50_000
		measure = 1_000_000
	)
	sumLog := 0.0
	for _, name := range samplingFidelityWorkloads {
		w, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("golden workload %q missing", name)
		}
		full := runOne(t, w, ooo.Skylake(), Factory(SpecFVP),
			Options{WarmupInsts: warm, MeasureInsts: measure})
		sampled := runOne(t, w, ooo.Skylake(), Factory(SpecFVP), Options{
			WarmupInsts: warm, MeasureInsts: measure,
			Sampling: Sampling{Units: 16, UnitInsts: 2_000, Seed: 1},
		})
		rel := math.Abs(sampled.IPC-full.IPC) / full.IPC
		t.Logf("%-12s full %.4f sampled %.4f (%.2f%% off, relCI %.2f%%, %dx detail reduction)",
			name, full.IPC, sampled.IPC, rel*100, sampled.Sampling.IPC.RelCI*100,
			measure/sampled.Sampling.SampledInsts)
		sumLog += math.Log1p(rel)
	}
	geo := math.Expm1(sumLog / float64(len(samplingFidelityWorkloads)))
	t.Logf("geomean |dIPC| = %.3f%%", geo*100)
	if geo > 0.02 {
		t.Errorf("sampling fidelity gate: geomean |dIPC| %.3f%% > 2%%", geo*100)
	}
}

// TestSpeedFloorSampling checks the sampling floor: omnetpp's
// 100M-instruction region after a 100k warmup runs at least 10× faster as
// 16 sampled units of 2,000 instructions than in full detail, in the
// median of 3 pairs. Each side starts on an empty scan memo, so the
// sampled side pays the checkpoint scan a first run of the plan pays.
func TestSpeedFloorSampling(t *testing.T) {
	w, _ := workload.ByName("omnetpp")
	full := Options{WarmupInsts: 100_000, MeasureInsts: 100_000_000}
	sampled := full
	sampled.Sampling = Sampling{Units: 16, UnitInsts: 2_000, Seed: 1}
	side := func(opt Options) func() time.Duration {
		return func() time.Duration {
			resetScanMemo()
			start := time.Now()
			runOne(t, w, ooo.Skylake(), Factory(SpecFVP), opt)
			return time.Since(start)
		}
	}
	speedFloor(t, 3, 10, side(full), side(sampled))
}

// TestSamplingCICoverage checks the confidence interval is honest: over a
// fixed list of seeds on one workload, the sampled 95% interval must
// contain the full-detail IPC in at least ~90% of runs. The seed list is
// fixed, so the test is deterministic — the margin below 95% absorbs the
// conservative-but-not-exact SRS variance estimator and the finite seed
// count, not run-to-run noise.
func TestSamplingCICoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("coverage sweep is slow")
	}
	const (
		warm    = 10_000
		measure = 120_000
		seeds   = 20
	)
	w, _ := workload.ByName("omnetpp")
	full := runOne(t, w, ooo.Skylake(), Factory(SpecFVP),
		Options{WarmupInsts: warm, MeasureInsts: measure})
	hits := 0
	for seed := uint64(0); seed < seeds; seed++ {
		r := runOne(t, w, ooo.Skylake(), Factory(SpecFVP), Options{
			WarmupInsts: warm, MeasureInsts: measure,
			Sampling: Sampling{Units: 12, UnitInsts: 1_000, Seed: seed},
		})
		m := r.Sampling.IPC
		if math.Abs(m.Mean-full.IPC) <= m.CIHalf {
			hits++
		} else {
			t.Logf("seed %d: interval %.4f±%.4f misses full-detail IPC %.4f",
				seed, m.Mean, m.CIHalf, full.IPC)
		}
	}
	t.Logf("coverage: %d/%d intervals contain the full-detail IPC", hits, seeds)
	if hits < 18 { // 90% of 20
		t.Errorf("CI coverage %d/%d below the 90%% floor", hits, seeds)
	}
}
