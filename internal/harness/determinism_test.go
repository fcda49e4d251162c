package harness

// RunSuite must be a pure function of (workloads, config, predictor,
// options): the same suite run at any parallelism level produces identical
// Result slices in input order. This is the guard against shared-state leaks
// from the core-pooling/allocation-reuse work — a core returned dirty to the
// pool, or predictor state bleeding between concurrent runs, shows up here
// as a cross-parallelism diff. CI runs this under -race.

import (
	"reflect"
	"runtime"
	"testing"

	"fvp/internal/ooo"
	"fvp/internal/workload"
)

func determinismWorkloads(t *testing.T) []workload.Workload {
	t.Helper()
	names := []string{"omnetpp", "mcf", "gcc", "hmmer", "milc", "lbm", "sjeng", "sphinx3"}
	ws := make([]workload.Workload, 0, len(names))
	for _, n := range names {
		w, ok := workload.ByName(n)
		if !ok {
			t.Fatalf("unknown workload %q", n)
		}
		ws = append(ws, w)
	}
	return ws
}

func TestRunSuiteDeterministicAcrossParallelism(t *testing.T) {
	ws := determinismWorkloads(t)
	// Every run draws a pooled core, so higher parallelism exercises the
	// pool under contention.
	opt := Options{WarmupInsts: 5_000, MeasureInsts: 20_000}
	levels := []int{1, 4, runtime.GOMAXPROCS(0)}

	for _, spec := range []Spec{SpecNone, SpecFVP} {
		var pf PredFactory
		if spec != SpecNone {
			pf = Factory(spec)
		}
		var ref []Result
		for _, par := range levels {
			opt.Parallelism = par
			got := runSuite(t, ws, ooo.Skylake(), pf, opt)
			if ref == nil {
				ref = got
				continue
			}
			if !reflect.DeepEqual(got, ref) {
				for i := range got {
					if !reflect.DeepEqual(got[i], ref[i]) {
						t.Errorf("%s: parallelism %d diverged from parallelism %d on %s:\n got: %+v\nwant: %+v",
							spec, par, levels[0], got[i].Workload, got[i], ref[i])
					}
				}
			}
		}
	}
}

// TestReuseCoresMatchesFresh pins the pooled path to fresh cores: core
// reuse is an allocation optimization and must never change results.
func TestReuseCoresMatchesFresh(t *testing.T) {
	ws := determinismWorkloads(t)[:4]
	opt := Options{WarmupInsts: 5_000, MeasureInsts: 20_000, Parallelism: 2}

	pf := Factory(SpecFVP)
	// The reference runs one at a time on an emptied pool, so each run
	// constructs a fresh core.
	a := make([]Result, len(ws))
	for i, w := range ws {
		corePools.Delete(ooo.Skylake())
		a[i] = runOne(t, w, ooo.Skylake(), pf, opt)
	}
	// Two pooled passes: the second is guaranteed to draw Reset cores.
	runSuite(t, ws, ooo.Skylake(), pf, opt)
	b := runSuite(t, ws, ooo.Skylake(), pf, opt)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("pooled RunSuite diverged from fresh-core RunSuite:\n got: %+v\nwant: %+v", b, a)
	}
}
