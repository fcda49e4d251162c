package harness

import (
	"context"
	"errors"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"fvp/internal/ooo"
	"fvp/internal/prog"
	"fvp/internal/telemetry"
	"fvp/internal/vp"
	"fvp/internal/workload"
)

func TestOptionsValidate(t *testing.T) {
	ok := Options{WarmupInsts: 100, MeasureInsts: 100}
	cases := []struct {
		name  string
		opt   Options
		field string // "" = valid
	}{
		{"zero measure", Options{WarmupInsts: 100}, "MeasureInsts"},
		{"overflow", Options{WarmupInsts: math.MaxUint64, MeasureInsts: 2}, "WarmupInsts"},
		{"negative regions", Options{MeasureInsts: 100, Regions: -1}, "Regions"},
		{"negative workers", Options{MeasureInsts: 100, RegionWorkers: -1}, "RegionWorkers"},
		{"regions > measure", Options{MeasureInsts: 3, Regions: 4}, "Regions"},
		{"bad mode", Options{MeasureInsts: 100, WarmupMode: "fnctional"}, "WarmupMode"},
		{"observer with regions", Options{MeasureInsts: 100, Regions: 2,
			OnSample: func(telemetry.Sample) {}}, "Regions"},
		{"tracer with regions", Options{MeasureInsts: 100, Regions: 2,
			Tracer: &telemetry.PipeTrace{}}, "Regions"},
		{"valid default", ok, ""},
		{"valid functional", Options{MeasureInsts: 1, WarmupMode: WarmupFunctional}, ""},
		{"valid regions", Options{WarmupInsts: 10, MeasureInsts: 100, Regions: 4, RegionWorkers: 2}, ""},
		{"observer single region", Options{MeasureInsts: 100, Regions: 1,
			OnSample: func(telemetry.Sample) {}}, ""},
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
		if ie.Error() == "" {
			t.Errorf("%s: empty error text", c.name)
		}
	}
}

func TestRunOneRejectsInvalidOptions(t *testing.T) {
	w, _ := workload.ByName("hmmer")
	_, err := RunOneCtx(context.Background(), w, ooo.Skylake(), nil, Options{})
	var ie *InvalidOptionsError
	if !errors.As(err, &ie) {
		t.Fatalf("got %v, want *InvalidOptionsError", err)
	}
}

// Explicit WarmupDetailed must be the zero value's path, byte-identical.
func TestExplicitDetailedMatchesDefault(t *testing.T) {
	w, _ := workload.ByName("omnetpp")
	opt := Options{WarmupInsts: 5_000, MeasureInsts: 20_000}
	a := runOne(t, w, ooo.Skylake(), Factory(SpecFVP), opt)
	opt.WarmupMode = WarmupDetailed
	b := runOne(t, w, ooo.Skylake(), Factory(SpecFVP), opt)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("explicit detailed diverged from default:\n got: %+v\nwant: %+v", b, a)
	}
}

// Functional warmup must warm the requested instruction count, leave the
// measured region the same length, and land within a loose IPC band of the
// detailed-warmup run (the tight 1% geomean bound is the CI fidelity gate;
// this is the always-on sanity rail).
func TestFunctionalWarmupSmoke(t *testing.T) {
	arms := []arm{{"baseline", SpecNone}, {"FVP", SpecFVP}, {"MR-8KB", SpecMR8KB}, {"Composite-8KB", SpecComp8KB}}
	for _, a := range arms {
		pf := Factory(a.spec)
		w, _ := workload.ByName("omnetpp")
		det := runOne(t, w, ooo.Skylake(), pf, Options{WarmupInsts: 20_000, MeasureInsts: 50_000})
		fun := runOne(t, w, ooo.Skylake(), pf, Options{
			WarmupInsts: 20_000, MeasureInsts: 50_000, WarmupMode: WarmupFunctional,
		})
		// The warmup window splits into a functional bulk and a short
		// detailed tail; FFInsts counts only the former.
		if want := 20_000 - detailTail(20_000); fun.FFInsts != want {
			t.Errorf("%s: FFInsts = %d, want %d", a.label, fun.FFInsts, want)
		}
		if det.FFInsts != 0 {
			t.Errorf("%s: detailed run reported FFInsts = %d", a.label, det.FFInsts)
		}
		// Retirement is width-granular, so the measured region may
		// overshoot its bound by up to a commit group.
		if fun.Stats.Retired < 50_000 || fun.Stats.Retired > 50_000+16 {
			t.Errorf("%s: measured %d insts, want ~50000", a.label, fun.Stats.Retired)
		}
		if fun.IPC <= 0 {
			t.Fatalf("%s: functional-warmup IPC = %v", a.label, fun.IPC)
		}
		if rel := math.Abs(fun.IPC-det.IPC) / det.IPC; rel > 0.10 {
			t.Errorf("%s: functional IPC %.4f vs detailed %.4f (%.1f%% off)",
				a.label, fun.IPC, det.IPC, rel*100)
		}
	}
}

// Functional warmup must be deterministic like everything else.
func TestFunctionalWarmupDeterministic(t *testing.T) {
	w, _ := workload.ByName("mcf")
	opt := Options{WarmupInsts: 10_000, MeasureInsts: 30_000, WarmupMode: WarmupFunctional}
	a := runOne(t, w, ooo.Skylake(), Factory(SpecFVP), opt)
	b := runOne(t, w, ooo.Skylake(), Factory(SpecFVP), opt)
	a.FFSeconds, b.FFSeconds = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Errorf("functional warmup nondeterministic:\n got: %+v\nwant: %+v", b, a)
	}
}

// stripWallClock zeroes the wall-time fields that legitimately vary
// between identical runs.
func stripWallClock(r Result) Result {
	r.FFSeconds = 0
	for i := range r.Regions {
		r.Regions[i].FFSeconds = 0
	}
	if r.Sampling != nil {
		sr := *r.Sampling
		sr.Units = append([]UnitResult(nil), sr.Units...)
		for i := range sr.Units {
			sr.Units[i].FFSeconds = 0
		}
		r.Sampling = &sr
	}
	return r
}

// For a fixed region count, the stitched result must not depend on how
// many workers executed the regions.
func TestRegionsDeterministicAcrossWorkers(t *testing.T) {
	w, _ := workload.ByName("gcc")
	base := Options{
		WarmupInsts: 5_000, MeasureInsts: 40_000,
		Regions: 4, WarmupMode: WarmupFunctional,
	}
	var ref Result
	for i, workers := range []int{1, 2, 4} {
		opt := base
		opt.RegionWorkers = workers
		got := stripWallClock(runOne(t, w, ooo.Skylake(), Factory(SpecFVP), opt))
		if i == 0 {
			ref = got
			continue
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d diverged from workers=1:\n got: %+v\nwant: %+v", workers, got, ref)
		}
	}
}

// Region structure: K regions whose measured slices start back to back at
// W + i*step, measured lengths summing to MeasureInsts, stitched stats
// equal to the field-wise sum.
func TestRegionStitching(t *testing.T) {
	w, _ := workload.ByName("omnetpp")
	opt := Options{WarmupInsts: 5_000, MeasureInsts: 35_000, Regions: 3}
	r := runOne(t, w, ooo.Skylake(), Factory(SpecFVP), opt)
	if len(r.Regions) != 3 {
		t.Fatalf("got %d regions, want 3", len(r.Regions))
	}
	step := opt.MeasureInsts / 3
	var sum ooo.RunStats
	var mt vp.Meter
	for i, reg := range r.Regions {
		if reg.Index != i {
			t.Errorf("region %d: Index = %d", i, reg.Index)
		}
		if want := opt.WarmupInsts + uint64(i)*step; reg.StartSeq != want {
			t.Errorf("region %d: StartSeq = %d, want %d", i, reg.StartSeq, want)
		}
		want := step
		if i == 2 {
			want = opt.MeasureInsts - 2*step
		}
		// Width-granular retirement may overshoot each region's bound by
		// up to a commit group.
		if reg.Stats.Retired < want || reg.Stats.Retired > want+16 {
			t.Errorf("region %d: measured %d insts, want ~%d", i, reg.Stats.Retired, want)
		}
		if reg.IPC <= 0 {
			t.Errorf("region %d: IPC = %v", i, reg.IPC)
		}
		sum = statsAdd(sum, reg.Stats)
		mt = meterAdd(mt, reg.Meter)
	}
	if !reflect.DeepEqual(sum, r.Stats) {
		t.Errorf("stitched stats != sum of regions:\n got: %+v\nwant: %+v", r.Stats, sum)
	}
	if !reflect.DeepEqual(mt, r.Meter) {
		t.Errorf("stitched meter != sum of regions:\n got: %+v\nwant: %+v", r.Meter, mt)
	}
	if r.Stats.Retired < opt.MeasureInsts || r.Stats.Retired > opt.MeasureInsts+3*16 {
		t.Errorf("stitched Retired = %d, want ~%d", r.Stats.Retired, opt.MeasureInsts)
	}
	if r.FFInsts == 0 {
		t.Error("region run reported no fast-forwarded instructions (checkpoint scan missing?)")
	}
}

// Region-stitched IPC must stay close to the monolithic run of the same
// spec — the fidelity number the CI gate tracks.
func TestRegionFidelityBand(t *testing.T) {
	w, _ := workload.ByName("hmmer")
	mono := runOne(t, w, ooo.Skylake(), Factory(SpecFVP),
		Options{WarmupInsts: 10_000, MeasureInsts: 60_000})
	stitched := runOne(t, w, ooo.Skylake(), Factory(SpecFVP),
		Options{WarmupInsts: 10_000, MeasureInsts: 60_000, Regions: 4, WarmupMode: WarmupFunctional})
	if fid := RegionFidelity(stitched, mono); fid > 0.10 {
		t.Errorf("region fidelity %.2f%% off monolithic (stitched %.4f vs %.4f)",
			fid*100, stitched.IPC, mono.IPC)
	}
}

// The warmup benchmarks time the warmup work itself — core reset and
// source construction happen with the timer stopped, mirroring how the
// harness pools cores across runs.
const benchWarmInsts = 100_000

var (
	warmFunctional = func(c *ooo.Core) { c.WarmFunctional(benchWarmInsts) }
	warmDetailed   = func(c *ooo.Core) { c.Run(benchWarmInsts) }
)

// newWarmupCore builds the omnetpp core with no value predictor that the
// warmup benchmarks and TestSpeedFloorFastForward time, and a reset that
// gives it a fresh executor and memory image.
func newWarmupCore() (*ooo.Core, func()) {
	w, _ := workload.ByName("omnetpp")
	p := w.Build()
	c := ooo.New(ooo.Skylake(), vp.None{}, prog.NewExec(p), p.BuildMemory())
	return c, func() { c.Reset(vp.None{}, prog.NewExec(p), p.BuildMemory()) }
}

func benchWarmup(b *testing.B, warm func(c *ooo.Core)) {
	b.Helper()
	c, reset := newWarmupCore()
	b.SetBytes(benchWarmInsts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		reset()
		b.StartTimer()
		warm(c)
	}
}

func BenchmarkWarmupFunctional(b *testing.B) { benchWarmup(b, warmFunctional) }

func BenchmarkWarmupDetailed(b *testing.B) { benchWarmup(b, warmDetailed) }

// TestSpeedFloorFastForward checks the fast-forward floor: on the core of
// the warmup benchmarks, five 100k-instruction warmups run at least 5×
// faster functionally than in detail, in the median of 8 pairs.
func TestSpeedFloorFastForward(t *testing.T) {
	const warmups = 5
	side := func(warm func(c *ooo.Core)) func() time.Duration {
		return func() time.Duration {
			c, reset := newWarmupCore()
			var d time.Duration
			for i := 0; i < warmups; i++ {
				reset()
				start := time.Now()
				warm(c)
				d += time.Since(start)
			}
			return d
		}
	}
	speedFloor(t, 8, 5, side(warmDetailed), side(warmFunctional))
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
