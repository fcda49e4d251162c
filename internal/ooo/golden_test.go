package ooo_test

// Cycle-exact golden-stat snapshots. Every (workload, core, predictor) case
// runs the timing model from a cold start for a fixed instruction budget and
// compares the complete RunStats and value-prediction Meter against a
// checked-in snapshot. Any change to the simulated microarchitecture — even
// a one-cycle shift in a single run — fails here, which is what lets the
// scheduler internals be rewritten for speed with proof that the modeled
// machine is untouched.
//
// Regenerate after an intentional model change with:
//
//	go test ./internal/ooo -run TestGoldenStats -update
import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fvp/internal/core"
	"fvp/internal/ooo"
	"fvp/internal/prog"
	"fvp/internal/vp"
	"fvp/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_stats.json from the current model")

// goldenInsts is the per-run retirement budget. Small enough that the full
// matrix runs in seconds, long enough to exercise flush replay, store
// forwarding, DRAM misses and predictor warm-up in every case.
const goldenInsts = 20_000

const goldenPath = "testdata/golden_stats.json"

// goldenWorkloads is the canonical 13-entry matrix slice, shared with the
// replay equivalence test so every consumer of "the golden matrix" means the
// same workloads (see workload.GoldenMatrix for the selection rationale).
var goldenWorkloads = workload.GoldenMatrix()

// goldenPredictors names the predictor arms: the no-VP baseline, the
// prior-art MR predictor, and the paper's FVP.
var goldenPredictors = []string{"none", "MR", "FVP"}

func goldenPredictor(name string) vp.Predictor {
	switch name {
	case "none":
		return nil
	case "MR":
		return vp.NewMR(vp.MR8KBConfig())
	case "FVP":
		return core.New(core.DefaultConfig())
	}
	panic("unknown golden predictor " + name)
}

func goldenCores() []ooo.Config { return []ooo.Config{ooo.Skylake(), ooo.Skylake2X()} }

// goldenRecord is one snapshot entry. Stats and Meter are raw event counts,
// so a mismatch pinpoints which mechanism diverged; Coverage is derived but
// recorded for readability.
type goldenRecord struct {
	Key      string
	Stats    ooo.RunStats
	Meter    vp.Meter
	Coverage float64
}

func goldenKey(wl, coreName, pred string) string {
	return fmt.Sprintf("%s/%s/%s", wl, coreName, pred)
}

// runGoldenCase simulates one matrix cell from a cold start.
func runGoldenCase(wl workload.Workload, cfg ooo.Config, pred string) goldenRecord {
	p := wl.Build()
	c := ooo.New(cfg, goldenPredictor(pred), prog.NewExec(p), p.BuildMemory())
	c.WarmCaches(p.WarmRanges)
	st := c.Run(goldenInsts)
	// SkippedCycles/SkipEvents describe the simulator (how many cycles the
	// loop clock-jumped), not the simulated machine, and legitimately differ
	// between the elided and ticking loops. Zeroing them here makes the
	// snapshot comparison a pure machine-model check — and makes the matrix
	// itself the bit-exactness proof for idle-cycle elision, since both
	// loops must match the same snapshot.
	st.SkippedCycles = 0
	st.SkipEvents = 0
	return goldenRecord{
		Key:      goldenKey(wl.Name, cfg.Name, pred),
		Stats:    st,
		Meter:    c.Meter,
		Coverage: c.Meter.Coverage(),
	}
}

func loadGolden(t *testing.T) map[string]goldenRecord {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden snapshot: %v (run with -update to generate)", err)
	}
	var recs []goldenRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		t.Fatalf("parse %s: %v", goldenPath, err)
	}
	m := make(map[string]goldenRecord, len(recs))
	for _, r := range recs {
		m[r.Key] = r
	}
	return m
}

func TestGoldenStats(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix skipped in -short mode")
	}
	if *update {
		updateGolden(t)
		return
	}
	want := loadGolden(t)
	for _, name := range goldenWorkloads {
		wl, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown golden workload %q", name)
		}
		for _, cfg := range goldenCores() {
			for _, pred := range goldenPredictors {
				wl, cfg, pred := wl, cfg, pred
				key := goldenKey(wl.Name, cfg.Name, pred)
				t.Run(key, func(t *testing.T) {
					t.Parallel()
					exp, ok := want[key]
					if !ok {
						t.Fatalf("no golden record for %s (run with -update)", key)
					}
					// Every cell runs with idle-cycle elision on and off:
					// both loops must reproduce the same snapshot.
					for _, tick := range []bool{false, true} {
						cfg := cfg
						cfg.DisableIdleElision = tick
						got := runGoldenCase(wl, cfg, pred)
						if !reflect.DeepEqual(got.Stats, exp.Stats) {
							t.Errorf("RunStats (ticking=%v) diverged from golden:\n got: %+v\nwant: %+v", tick, got.Stats, exp.Stats)
						}
						if got.Meter != exp.Meter {
							t.Errorf("vp.Meter (ticking=%v) diverged from golden:\n got: %+v\nwant: %+v", tick, got.Meter, exp.Meter)
						}
					}
				})
			}
		}
	}
}

func updateGolden(t *testing.T) {
	var recs []goldenRecord
	for _, name := range goldenWorkloads {
		wl, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown golden workload %q", name)
		}
		for _, cfg := range goldenCores() {
			for _, pred := range goldenPredictors {
				recs = append(recs, runGoldenCase(wl, cfg, pred))
			}
		}
	}
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d records to %s", len(recs), goldenPath)
}

// TestGoldenDeterminism re-runs one snapshot case and demands bit-identical
// stats: the simulator must be a pure function of (workload, config,
// predictor) — no map-iteration order, timing, or shared-state dependence.
func TestGoldenDeterminism(t *testing.T) {
	wl, _ := workload.ByName("omnetpp")
	a := runGoldenCase(wl, ooo.Skylake(), "FVP")
	b := runGoldenCase(wl, ooo.Skylake(), "FVP")
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs diverged:\n a: %+v\n b: %+v", a, b)
	}
}
