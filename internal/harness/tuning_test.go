package harness

import (
	"os"
	"testing"

	"fvp/internal/ooo"
	"fvp/internal/workload"
)

// TestTuningProbe runs a handful of representative workloads with baseline
// and FVP and logs the metrics; it only asserts sanity (IPC > 0). Used
// during bring-up to eyeball per-kernel behaviour: run with -v.
func TestTuningProbe(t *testing.T) {
	if os.Getenv("FVP_TUNE") == "" {
		t.Skip("calibration probe; set FVP_TUNE=1 to run")
	}
	names := []string{"omnetpp", "mcf", "cassandra", "leela", "wrf", "libquantum", "hmmer"}
	opt := Options{WarmupInsts: 60_000, MeasureInsts: 150_000}
	for _, n := range names {
		w, ok := workload.ByName(n)
		if !ok {
			t.Fatalf("unknown workload %s", n)
		}
		base := runOne(t, w, ooo.Skylake(), nil, opt)
		fvp := runOne(t, w, ooo.Skylake(), Factory(SpecFVP), opt)
		if base.IPC <= 0 || fvp.IPC <= 0 {
			t.Fatalf("%s: zero IPC (base=%.3f fvp=%.3f)", n, base.IPC, fvp.IPC)
		}
		t.Logf("%-12s base=%.3f fvp=%.3f speedup=%+.2f%% cov=%.1f%% acc=%.1f%% flush=%d brM=%d fwd=%d lvl=%v stall=%d/%d",
			n, base.IPC, fvp.IPC, (fvp.IPC/base.IPC-1)*100,
			fvp.Coverage*100, fvp.Accuracy*100, fvp.Stats.VPFlushes,
			base.Stats.BranchMispredicts, base.Stats.Forwards,
			base.Stats.LoadsByLevel, base.Stats.RetireStallCycles, base.Stats.Cycles)
	}
}
