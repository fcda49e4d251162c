package harness

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

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
	for _, spec := range []Spec{SpecNone, SpecFVP, SpecMR8KB, SpecComp8KB} {
		var pf PredFactory
		if spec != SpecNone {
			pf = Factory(spec)
		}
		w, _ := workload.ByName("omnetpp")
		det := runOne(t, w, ooo.Skylake(), pf, Options{WarmupInsts: 20_000, MeasureInsts: 50_000})
		fun := runOne(t, w, ooo.Skylake(), pf, Options{
			WarmupInsts: 20_000, MeasureInsts: 50_000, WarmupMode: WarmupFunctional,
		})
		// The warmup window splits into a functional bulk and a short
		// detailed tail; FFInsts counts only the former.
		if want := 20_000 - detailTail(20_000); fun.FFInsts != want {
			t.Errorf("%s: FFInsts = %d, want %d", spec, fun.FFInsts, want)
		}
		if det.FFInsts != 0 {
			t.Errorf("%s: detailed run reported FFInsts = %d", spec, det.FFInsts)
		}
		// Retirement is width-granular, so the measured region may
		// overshoot its bound by up to a commit group.
		if fun.Stats.Retired < 50_000 || fun.Stats.Retired > 50_000+16 {
			t.Errorf("%s: measured %d insts, want ~50000", spec, fun.Stats.Retired)
		}
		if fun.IPC <= 0 {
			t.Fatalf("%s: functional-warmup IPC = %v", spec, fun.IPC)
		}
		if rel := math.Abs(fun.IPC-det.IPC) / det.IPC; rel > 0.10 {
			t.Errorf("%s: functional IPC %.4f vs detailed %.4f (%.1f%% off)",
				spec, fun.IPC, det.IPC, rel*100)
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

func benchWarmup(b *testing.B, warm func(c *ooo.Core)) {
	b.Helper()
	w, _ := workload.ByName("omnetpp")
	p := w.Build()
	ex := prog.NewExec(p)
	c := ooo.New(ooo.Skylake(), vp.None{}, ex, p.BuildMemory())
	b.SetBytes(benchWarmInsts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ex = prog.NewExec(p)
		c.Reset(vp.None{}, ex, p.BuildMemory())
		b.StartTimer()
		warm(c)
	}
}

func BenchmarkWarmupFunctional(b *testing.B) {
	benchWarmup(b, func(c *ooo.Core) { c.WarmFunctional(benchWarmInsts) })
}

func BenchmarkWarmupDetailed(b *testing.B) {
	benchWarmup(b, func(c *ooo.Core) { c.Run(benchWarmInsts) })
}
