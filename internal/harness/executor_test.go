package harness

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"fvp/internal/ooo"
	"fvp/internal/prog"
	"fvp/internal/workload"
)

// forEach must call every index exactly once, never run more than workers
// calls at a time, and start no goroutine when there is one item or one
// worker.
func TestForEach(t *testing.T) {
	for _, n := range []int{0, 1, 5} {
		for _, workers := range []int{0, 1, 2, 8} {
			bound := workers
			if bound == 0 {
				bound = runtime.GOMAXPROCS(0)
			}
			before := runtime.NumGoroutine()
			var (
				mu             sync.Mutex
				calls          = make([]int, n)
				inFlight, peak int
				spawned        bool
			)
			forEach(n, workers, func(i int) {
				mu.Lock()
				calls[i]++
				inFlight++
				peak = max(peak, inFlight)
				spawned = spawned || runtime.NumGoroutine() > before
				mu.Unlock()
				time.Sleep(time.Millisecond)
				mu.Lock()
				inFlight--
				mu.Unlock()
			})
			for i, c := range calls {
				if c != 1 {
					t.Errorf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
				}
			}
			if peak > bound {
				t.Errorf("n=%d workers=%d: %d calls overlapped, bound %d", n, workers, peak, bound)
			}
			if (n == 1 || workers == 1) && spawned {
				t.Errorf("n=%d workers=%d: started a goroutine", n, workers)
			}
		}
	}
}

// monolithicRun is the reference a plain run must reproduce: one core
// driven from the program entry by the executor that built the image,
// with no unit plan and no restored executor.
func monolithicRun(t *testing.T, w workload.Workload, cfg ooo.Config, pf PredFactory, opt Options) Result {
	t.Helper()
	p := w.Build()
	ex := prog.NewExec(p)
	pred := pf()
	seg, err := runSegmentCtx(context.Background(), cfg, pred, ex, ex.Checkpoint().Memory(), p.WarmRanges, opt, opt.MeasureInsts)
	if err != nil {
		t.Fatal(err)
	}
	return newResult(w, cfg, pred.Name(), opt.warmupMode(), seg)
}

// A plain run is the one-unit plan: it equals the same spec with
// Regions: 1 and the monolithic reference, carries no per-region rows,
// and counts as fast-forward only the functional bulk of its warmup.
func TestPlainRunIsOneUnitPlan(t *testing.T) {
	w, _ := workload.ByName("omnetpp")
	const warm = 5_000
	for _, mode := range []WarmupMode{WarmupDetailed, WarmupFunctional} {
		opt := Options{WarmupInsts: warm, MeasureInsts: 20_000, WarmupMode: mode}
		plain := runOne(t, w, ooo.Skylake(), Factory(SpecFVP), opt)
		opt.Regions = 1
		one := runOne(t, w, ooo.Skylake(), Factory(SpecFVP), opt)
		ref := monolithicRun(t, w, ooo.Skylake(), Factory(SpecFVP), opt)
		if mode == WarmupDetailed {
			if plain.FFInsts != 0 || plain.FFSeconds != 0 {
				t.Errorf("detailed: FFInsts %d FFSeconds %v, want 0 and 0", plain.FFInsts, plain.FFSeconds)
			}
		} else {
			if want := warm - detailTail(warm); plain.FFInsts != want {
				t.Errorf("functional: FFInsts = %d, want %d", plain.FFInsts, want)
			}
			plain, one, ref = stripWallClock(plain), stripWallClock(one), stripWallClock(ref)
		}
		if plain.Regions != nil {
			t.Errorf("%s: plain run has %d region rows, want nil", mode, len(plain.Regions))
		}
		if !reflect.DeepEqual(plain, one) {
			t.Errorf("%s: plain run differs from Regions: 1:\n got: %+v\nwant: %+v", mode, plain, one)
		}
		if !reflect.DeepEqual(plain, ref) {
			t.Errorf("%s: plain run differs from the monolithic reference:\n got: %+v\nwant: %+v", mode, plain, ref)
		}
	}
}
