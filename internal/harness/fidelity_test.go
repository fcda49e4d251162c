package harness

import (
	"math"
	"os"
	"testing"

	"fvp/internal/ooo"
	"fvp/internal/workload"
)

// fidelityWorkloads mirrors the golden matrix's 13-entry slice of the
// study list (internal/ooo/golden_test.go): every builder template and
// category, with the DRAM-bound pointer chasers double-covered.
var fidelityWorkloads = []string{
	"omnetpp", "mcf", "gcc", "hmmer", "sjeng", "libquantum",
	"milc", "sphinx3", "leela", "lbm", "cassandra", "hadoop",
	"mcf-17",
}

// TestWarmingFidelityGate is the CI warming-fidelity differential: for
// each golden-matrix workload it measures the same region twice — once
// after detailed warmup, once after functional warmup — and gates the
// geomean relative IPC error under 1%. A second gate holds the stitched
// region-parallel result (K=4, functional warmup) within 2% of the
// monolithic run. Env-gated because it simulates the matrix four times;
// CI runs it with FVP_FIDELITY_GATE=1.
func TestWarmingFidelityGate(t *testing.T) {
	if os.Getenv("FVP_FIDELITY_GATE") == "" {
		t.Skip("set FVP_FIDELITY_GATE=1 to run the warming-fidelity differential (CI job)")
	}
	const warmup, measure = 50_000, 100_000

	warmLog := 0.0
	regionLog := 0.0
	for _, name := range fidelityWorkloads {
		w, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown fidelity workload %q", name)
		}
		det := runOne(t, w, ooo.Skylake(), Factory(SpecFVP),
			Options{WarmupInsts: warmup, MeasureInsts: measure})
		fun := runOne(t, w, ooo.Skylake(), Factory(SpecFVP),
			Options{WarmupInsts: warmup, MeasureInsts: measure, WarmupMode: WarmupFunctional})
		stitched := runOne(t, w, ooo.Skylake(), Factory(SpecFVP),
			Options{WarmupInsts: warmup, MeasureInsts: measure,
				WarmupMode: WarmupFunctional, Regions: 4})

		warmErr := RegionFidelity(fun, det)
		regionErr := RegionFidelity(stitched, det)
		t.Logf("%-12s detailed %.4f functional %.4f (%.2f%%) stitched K=4 %.4f (%.2f%%)",
			name, det.IPC, fun.IPC, warmErr*100, stitched.IPC, regionErr*100)
		warmLog += math.Log1p(warmErr)
		regionLog += math.Log1p(regionErr)
	}
	n := float64(len(fidelityWorkloads))
	warmGeo := math.Expm1(warmLog / n)
	regionGeo := math.Expm1(regionLog / n)
	t.Logf("geomean |ΔIPC|: functional warmup %.3f%%, stitched regions %.3f%%",
		warmGeo*100, regionGeo*100)
	if warmGeo > 0.01 {
		t.Errorf("functional-warmup fidelity %.3f%% exceeds the 1%% gate", warmGeo*100)
	}
	if regionGeo > 0.02 {
		t.Errorf("region-stitched fidelity %.3f%% exceeds the 2%% gate", regionGeo*100)
	}
}
