package harness

import (
	"os"
	"testing"

	"fvp/internal/ooo"
	"fvp/internal/workload"
)

// TestScalingSubset prints SKL vs 2X FVP gains for the main gainer
// workloads (bring-up instrumentation).
func TestScalingSubset(t *testing.T) {
	if os.Getenv("FVP_TUNE") == "" {
		t.Skip("calibration probe; set FVP_TUNE=1 to run")
	}
	opt := Options{WarmupInsts: 80_000, MeasureInsts: 250_000}
	for _, n := range []string{"omnetpp", "astar", "soplex", "sphinx3", "namd", "cassandra", "tpce", "milc"} {
		w, _ := workload.ByName(n)
		b1 := runOne(t, w, ooo.Skylake(), nil, opt)
		f1 := runOne(t, w, ooo.Skylake(), Factory(SpecFVP), opt)
		b2 := runOne(t, w, ooo.Skylake2X(), nil, opt)
		f2 := runOne(t, w, ooo.Skylake2X(), Factory(SpecFVP), opt)
		t.Logf("%-10s SKL %.2f->%.2f (%+.1f%% cov%.0f) 2X %.2f->%.2f (%+.1f%% cov%.0f) stall:%d/%d",
			n, b1.IPC, f1.IPC, (f1.IPC/b1.IPC-1)*100, f1.Coverage*100,
			b2.IPC, f2.IPC, (f2.IPC/b2.IPC-1)*100, f2.Coverage*100,
			b2.Stats.RetireStallCycles, b2.Stats.Cycles)
	}
}
