package ooo_test

// Source-equivalence matrix: every golden case is re-run with the
// instruction stream recorded once into memory ([]isa.DynInst) and replayed,
// then compared against the SAME testdata/golden_stats.json snapshot the
// generator-driven matrix pins. Passing means the SoA core is
// source-agnostic: bit-identical stats whether micro-ops arrive from the
// functional generator or from a recorded window.

import (
	"reflect"
	"testing"

	"fvp/internal/isa"
	"fvp/internal/ooo"
	"fvp/internal/prog"
	"fvp/internal/workload"
)

// replayGoldenSlack is how far past the retirement budget each recording
// extends: fetch runs ahead of retirement by at most the ROB plus the fetch
// buffer (a few hundred micro-ops), so the replayed source must never run
// dry before the run's goldenInsts-th retirement.
const replayGoldenSlack = 8_192

func TestGoldenStatsReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("golden replay matrix skipped in -short mode")
	}
	want := loadGolden(t)
	for _, name := range goldenWorkloads {
		wl, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown golden workload %q", name)
		}
		insts := make([]isa.DynInst, goldenInsts+replayGoldenSlack)
		ex := prog.NewExec(wl.Build())
		for i := range insts {
			if !ex.Next(&insts[i]) {
				t.Fatalf("record %s: executor halted at %d of %d insts", name, i, len(insts))
			}
		}
		for _, cfg := range goldenCores() {
			for _, pred := range goldenPredictors {
				wl, cfg, pred := wl, cfg, pred
				key := goldenKey(wl.Name, cfg.Name, pred)
				t.Run(key, func(t *testing.T) {
					t.Parallel()
					p := wl.Build()
					c := ooo.New(cfg, goldenPredictor(pred), ooo.NewSliceSource(insts), p.BuildMemory())
					c.WarmCaches(p.WarmRanges)
					st := c.Run(goldenInsts)
					st.SkippedCycles = 0
					st.SkipEvents = 0
					exp, ok := want[key]
					if !ok {
						t.Fatalf("no golden record for %s (run with -update)", key)
					}
					if !reflect.DeepEqual(st, exp.Stats) {
						t.Errorf("replayed RunStats diverged from golden:\n got: %+v\nwant: %+v", st, exp.Stats)
					}
					if c.Meter != exp.Meter {
						t.Errorf("replayed vp.Meter diverged from golden:\n got: %+v\nwant: %+v", c.Meter, exp.Meter)
					}
				})
			}
		}
	}
}
