package harness

import (
	"context"
	"io"
	"reflect"
	"testing"

	"fvp/internal/core"
	"fvp/internal/ooo"
	"fvp/internal/vp"
)

func memoRunner() *Runner {
	r := NewRunnerCtx(context.Background(), Options{WarmupInsts: 5_000, MeasureInsts: 10_000})
	r.Workloads = r.Workloads[:3]
	return r
}

// TestCompareMemoized asserts the suite memo: a second Compare with the
// same (config, spec) — from the same or a different experiment — performs
// zero new suite runs and returns identical results.
func TestCompareMemoized(t *testing.T) {
	r := memoRunner()
	cfg := ooo.Skylake()

	first := r.Compare(cfg, SpecFVP)
	runs := r.SuiteRuns()
	if runs != 2 { // baseline + FVP
		t.Fatalf("first Compare did %d suite runs, want 2", runs)
	}
	second := r.Compare(cfg, SpecFVP)
	if got := r.SuiteRuns(); got != runs {
		t.Fatalf("repeat Compare did %d new suite runs, want 0", got-runs)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("memoized Compare returned different pairs")
	}

	// The baseline is shared across specs on the same config...
	r.Compare(cfg, SpecMR8KB)
	if got := r.SuiteRuns(); got != runs+1 {
		t.Fatalf("new spec on cached config did %d new runs, want 1", got-runs)
	}
	// ...and a different core config misses on both arms.
	r.Compare(ooo.Skylake2X(), SpecFVP)
	if got := r.SuiteRuns(); got != runs+3 {
		t.Fatalf("new config did %d new runs, want 2", got-runs-1)
	}
	if r.Err() != nil {
		t.Fatalf("runner error: %v", r.Err())
	}
}

// TestCompareWithMemoized covers the closure-factory path used by the
// epoch and table-size sweeps: rows are keyed by label, so the same label
// memoizes and distinct labels do not collide.
func TestCompareWithMemoized(t *testing.T) {
	r := memoRunner()
	cfg := ooo.Skylake()
	pf := func(epoch uint64) PredFactory {
		return func() vp.Predictor {
			c := core.DefaultConfig()
			c.Epoch = epoch
			return core.New(c)
		}
	}

	a := r.CompareWith(cfg, "FVP-epoch-100000", pf(100_000))
	runs := r.SuiteRuns()
	b := r.CompareWith(cfg, "FVP-epoch-100000", pf(100_000))
	if got := r.SuiteRuns(); got != runs {
		t.Fatalf("repeat CompareWith did %d new suite runs, want 0", got-runs)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("memoized CompareWith returned different pairs")
	}
	r.CompareWith(cfg, "FVP-epoch-400000", pf(400_000))
	if got := r.SuiteRuns(); got != runs+1 {
		t.Fatalf("distinct label did %d new runs, want 1", got-runs)
	}
}

// TestMemoizedMatchesFresh guards against the memo changing results: a
// memo-hit Compare must equal what a fresh runner computes from scratch.
func TestMemoizedMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("fresh-vs-memo comparison skipped in -short mode")
	}
	cfg := ooo.Skylake()
	warm := memoRunner()
	warm.Compare(cfg, SpecFVP) // populate
	memod := warm.Compare(cfg, SpecFVP)

	fresh := memoRunner().Compare(cfg, SpecFVP)
	if !reflect.DeepEqual(memod, fresh) {
		t.Fatal("memoized pairs differ from a fresh runner's")
	}
}

// The memo keys on the whole core config, not its name: a Skylake with
// one field changed gets its own baseline and predictor suites and its
// own results.
func TestCompareKeysOnConfigNotName(t *testing.T) {
	r := memoRunner()
	def := r.Compare(ooo.Skylake(), SpecFVP)
	runs := r.SuiteRuns()
	cfg := ooo.Skylake()
	cfg.BranchMispredictPenalty += 10
	variant := r.Compare(cfg, SpecFVP)
	if got := r.SuiteRuns() - runs; got != 2 {
		t.Fatalf("same-name variant config did %d new suite runs, want 2", got)
	}
	if reflect.DeepEqual(variant, def) {
		t.Error("variant config returned the default config's pairs")
	}
}

// The ablation's "default Skylake" variant is the Skylake config itself,
// so its suites come from the memo: one Skylake baseline and FVP suite,
// plus a baseline and an FVP suite per other variant.
func TestAblationReusesDefaultSuites(t *testing.T) {
	r := memoRunner()
	r.Workloads = r.Workloads[:1]
	if err := runAblation(r, io.Discard); err != nil {
		t.Fatal(err)
	}
	if want := 2 + 2*(len(ablationVariants())-1); r.SuiteRuns() != want {
		t.Errorf("ablation did %d suite runs, want %d", r.SuiteRuns(), want)
	}
}
