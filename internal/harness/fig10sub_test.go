package harness

import (
	"context"
	"os"
	"testing"

	"fvp/internal/ooo"
	"fvp/internal/workload"
)

// TestFig10Subset checks the area-sensitivity direction on a gainer subset
// (calibration probe; FVP_TUNE=1).
func TestFig10Subset(t *testing.T) {
	if os.Getenv("FVP_TUNE") == "" {
		t.Skip("calibration probe; set FVP_TUNE=1 to run")
	}
	subset := []string{"omnetpp", "astar", "soplex", "cassandra", "tpce", "hmmer", "mcf", "leela"}
	r := NewRunnerCtx(context.Background(), Options{WarmupInsts: 80_000, MeasureInsts: 200_000})
	r.Workloads = nil
	for _, n := range subset {
		w, _ := workload.ByName(n)
		r.Workloads = append(r.Workloads, w)
	}
	for _, a := range priorArtArms {
		pairs := r.Compare(ooo.Skylake(), a.spec)
		t.Logf("%-14s %+0.2f%% cov=%.0f%%", a.label, (Geomean(pairs)-1)*100, MeanCoverage(pairs)*100)
	}
}
