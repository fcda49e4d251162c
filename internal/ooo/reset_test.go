package ooo_test

// Reset-equivalence: a Reset core must be indistinguishable from a freshly
// constructed one. The harness pools cores across RunOne calls on the
// strength of this property, so it is tested directly: run workload A on a
// core, Reset it for workload B, and demand bit-identical stats versus a
// fresh core running B. The cross-workload order maximizes the chance that
// leaked state (cache lines, predictor counters, scheduler queues, shadow
// memory) changes an observable count.

import (
	"reflect"
	"testing"

	"fvp/internal/memsys"
	"fvp/internal/ooo"
	"fvp/internal/prog"
	"fvp/internal/vp"
	"fvp/internal/workload"
)

const resetInsts = 15_000

func runFresh(t *testing.T, name string, cfg ooo.Config, pred string, cold bool) (ooo.RunStats, vp.Meter) {
	t.Helper()
	wl, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	p := wl.Build()
	c := ooo.New(cfg, goldenPredictor(pred), prog.NewExec(p), p.BuildMemory())
	if !cold {
		c.WarmCaches(p.WarmRanges)
	}
	st := c.Run(resetInsts)
	return st, c.Meter
}

func TestResetEquivalence(t *testing.T) {
	// One pooled core cycles through dissimilar workloads and predictor
	// arms; every leg must match a fresh core bit-for-bit.
	legs := []struct {
		workload string
		pred     string
		cold     bool // run without WarmCaches
	}{
		{"mcf", "FVP", false},    // pointer-chasing, heavy DRAM traffic
		{"hmmer", "none", false}, // compute-bound, no value prediction
		{"omnetpp", "MR", false}, // branchy, MR store links
		{"mcf", "FVP", false},    // repeat leg 1: reuse after reuse
		// Reset leaves the previous leg's lines in place, stale; with no
		// warm to rebuild them, every set must read as empty.
		{"mcf", "FVP", true},
	}
	for _, cfg := range []ooo.Config{ooo.Skylake(), ooo.Skylake2X()} {
		var pooled *ooo.Core
		var prev *prog.Program
		for i, leg := range legs {
			wl, ok := workload.ByName(leg.workload)
			if !ok {
				t.Fatalf("unknown workload %q", leg.workload)
			}
			p := wl.Build()
			if pooled == nil {
				pooled = ooo.New(cfg, goldenPredictor(leg.pred), prog.NewExec(p), p.BuildMemory())
			} else {
				pooled.Reset(goldenPredictor(leg.pred), prog.NewExec(p), p.BuildMemory())
			}
			if leg.cold {
				for _, r := range prev.WarmRanges {
					if lvl := pooled.Hierarchy().ProbeLevel(r.Base); lvl != memsys.LvlMem {
						t.Errorf("%s leg %d: line %#x the previous leg warmed reads as in %v after Reset",
							cfg.Name, i, r.Base, lvl)
					}
				}
			} else {
				pooled.WarmCaches(p.WarmRanges)
			}
			prev = p
			gotStats := pooled.Run(resetInsts)
			gotMeter := pooled.Meter

			wantStats, wantMeter := runFresh(t, leg.workload, cfg, leg.pred, leg.cold)
			if !reflect.DeepEqual(gotStats, wantStats) {
				t.Errorf("%s leg %d (%s/%s): reset core RunStats diverged from fresh core:\n got: %+v\nwant: %+v",
					cfg.Name, i, leg.workload, leg.pred, gotStats, wantStats)
			}
			if gotMeter != wantMeter {
				t.Errorf("%s leg %d (%s/%s): reset core Meter diverged from fresh core:\n got: %+v\nwant: %+v",
					cfg.Name, i, leg.workload, leg.pred, gotMeter, wantMeter)
			}
		}
	}
}
