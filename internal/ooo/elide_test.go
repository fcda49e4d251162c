package ooo_test

// Differential tests for idle-cycle elision (elide.go). The golden-stat
// matrix already pins both the clock-jumping and the ticking path to the
// pre-elision snapshots; the tests here additionally compare the two paths
// (via Config.DisableIdleElision) on interval samples and pipe-trace
// output — plus proof that the fast path actually skips on the
// memory-bound workloads it was built for.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"fvp/internal/ooo"
	"fvp/internal/prog"
	"fvp/internal/telemetry"
	"fvp/internal/workload"
)

// elideCore builds a cold-start core for one matrix cell with the elision
// switch set explicitly.
func elideCore(t *testing.T, wlName string, cfg ooo.Config, pred string, disable bool) *ooo.Core {
	t.Helper()
	wl, ok := workload.ByName(wlName)
	if !ok {
		t.Fatalf("unknown workload %q", wlName)
	}
	p := wl.Build()
	cfg.DisableIdleElision = disable
	c := ooo.New(cfg, goldenPredictor(pred), prog.NewExec(p), p.BuildMemory())
	c.WarmCaches(p.WarmRanges)
	return c
}

// normalizeSkips zeroes the simulator meta-counters so ticking and jumping
// runs can be compared field-for-field on the machine model alone.
func normalizeSkips(st ooo.RunStats) ooo.RunStats {
	st.SkippedCycles = 0
	st.SkipEvents = 0
	return st
}

// TestElisionTickEquivalence runs representative cells of the golden matrix
// twice — clock-jumping and ticking — and requires identical RunStats and
// vp.Meter.
func TestElisionTickEquivalence(t *testing.T) {
	cases := []struct {
		wl   string
		cfg  ooo.Config
		pred string
	}{
		{"mcf", ooo.Skylake(), "none"},
		{"mcf", ooo.Skylake(), "FVP"},
		{"mcf-17", ooo.Skylake2X(), "FVP"},
		{"omnetpp", ooo.Skylake(), "FVP"},
		{"gcc", ooo.Skylake(), "MR"},
		{"libquantum", ooo.Skylake2X(), "none"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.wl+"/"+tc.cfg.Name+"/"+tc.pred, func(t *testing.T) {
			t.Parallel()
			fast := elideCore(t, tc.wl, tc.cfg, tc.pred, false)
			slow := elideCore(t, tc.wl, tc.cfg, tc.pred, true)
			fs := fast.Run(goldenInsts)
			ss := slow.Run(goldenInsts)
			if ss.SkippedCycles != 0 || ss.SkipEvents != 0 {
				t.Fatalf("ticking run recorded skips: %d cycles / %d events",
					ss.SkippedCycles, ss.SkipEvents)
			}
			if got, want := normalizeSkips(fs), normalizeSkips(ss); !reflect.DeepEqual(got, want) {
				t.Errorf("RunStats diverged between elision and ticking:\n got: %+v\nwant: %+v", got, want)
			}
			if fast.Meter != slow.Meter {
				t.Errorf("vp.Meter diverged between elision and ticking:\n got: %+v\nwant: %+v",
					fast.Meter, slow.Meter)
			}
		})
	}
}

// TestElisionObserverBoundary proves observation is jump-transparent:
// interval samples (including the mid-jump boundary case — the interval is
// chosen so boundaries land inside long DRAM stalls) and pipe-trace
// timestamps serialize byte-identically on both paths, once the
// skipped-cycle meter — documented as simulator-describing — is normalized.
func TestElisionObserverBoundary(t *testing.T) {
	const (
		interval   = 1_111 // prime-ish: boundaries drift across stall phases
		traceInsts = 2_000
	)
	runObserved := func(disable bool) ([]telemetry.Sample, []byte) {
		c := elideCore(t, "mcf", ooo.Skylake(), "FVP", disable)
		smp := telemetry.NewSampler()
		trc := telemetry.NewPipeTrace(traceInsts)
		c.SetObserver(smp, interval)
		c.SetTracer(trc)
		c.Run(goldenInsts)
		c.FinishObservation()
		var buf bytes.Buffer
		if err := trc.WriteChromeTrace(&buf); err != nil {
			t.Fatalf("WriteChromeTrace: %v", err)
		}
		return smp.Samples(), buf.Bytes()
	}
	fastSamples, fastTrace := runObserved(false)
	slowSamples, slowTrace := runObserved(true)

	marshal := func(samples []telemetry.Sample) []byte {
		for i := range samples {
			samples[i].SkippedCycles = 0
		}
		data, err := json.Marshal(samples)
		if err != nil {
			t.Fatalf("marshal samples: %v", err)
		}
		return data
	}
	if fast, slow := marshal(fastSamples), marshal(slowSamples); !bytes.Equal(fast, slow) {
		t.Errorf("interval samples diverged between elision and ticking:\n got: %s\nwant: %s", fast, slow)
	}
	if !bytes.Equal(fastTrace, slowTrace) {
		t.Errorf("pipe traces diverged between elision and ticking (%d vs %d bytes)",
			len(fastTrace), len(slowTrace))
	}
}

// TestElisionSkipsMemBound checks the fast path earns its keep where the
// ISSUE aimed it: a DRAM-bound pointer chaser must spend a large share of
// its cycles in jumps.
func TestElisionSkipsMemBound(t *testing.T) {
	c := elideCore(t, "mcf", ooo.Skylake(), "none", false)
	st := c.Run(goldenInsts)
	if st.SkipEvents == 0 || st.SkippedCycles == 0 {
		t.Fatalf("no idle cycles elided on mcf: %+v", st)
	}
	if st.SkippedCycles >= st.Cycles {
		t.Fatalf("skipped %d of %d cycles — skips must be a strict subset", st.SkippedCycles, st.Cycles)
	}
	if ratio := float64(st.SkippedCycles) / float64(st.Cycles); ratio < 0.2 {
		t.Errorf("skip ratio %.3f on a DRAM-bound chaser; want >= 0.2 (SkippedCycles=%d Cycles=%d)",
			ratio, st.SkippedCycles, st.Cycles)
	}
}
