package ooo

import (
	"testing"

	"fvp/internal/isa"
	"fvp/internal/prog"
	"fvp/internal/workload"
)

// TestTraceReplayEquivalence checks a core invariant of the trace-driven
// design: simulating from a recorded instruction window must produce
// exactly the same timing as simulating from the live functional executor,
// because the timing model consumes only the DynInst stream.
func TestTraceReplayEquivalence(t *testing.T) {
	w, ok := workload.ByName("astar")
	if !ok {
		t.Fatal("workload missing")
	}
	p := w.Build()
	const n = 60_000

	// Record the window; fetch runs a few hundred micro-ops past the
	// retirement budget, so the recording extends beyond it.
	insts := make([]isa.DynInst, n+5000)
	rec := prog.NewExec(p)
	for i := range insts {
		if !rec.Next(&insts[i]) {
			t.Fatalf("executor halted at %d", i)
		}
	}

	live := New(Skylake(), nil, prog.NewExec(p), p.BuildMemory())
	live.WarmCaches(p.WarmRanges)
	liveStats := live.Run(n)

	replay := New(Skylake(), nil, &sliceSource{insts: insts}, p.BuildMemory())
	replay.WarmCaches(p.WarmRanges)
	replayStats := replay.Run(n)

	if liveStats != replayStats {
		t.Errorf("replayed RunStats diverged from the live run:\n  live: %+v\nreplay: %+v", liveStats, replayStats)
	}
}

// TestDeterminism: two identical runs must agree cycle-for-cycle (the whole
// stack is deterministic by construction).
func TestDeterminism(t *testing.T) {
	w, _ := workload.ByName("cassandra")
	p := w.Build()
	run := func() RunStats {
		c := New(Skylake(), nil, prog.NewExec(p), p.BuildMemory())
		c.WarmCaches(p.WarmRanges)
		return c.Run(50_000)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("non-deterministic runs:\n%+v\n%+v", a, b)
	}
}
