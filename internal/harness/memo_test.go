package harness

import (
	"context"
	"io"
	"reflect"
	"testing"

	"fvp/internal/core"
	"fvp/internal/ooo"
)

func memoRunner() *Runner {
	r := NewRunnerCtx(context.Background(), Options{WarmupInsts: 5_000, MeasureInsts: 10_000})
	r.Workloads = r.Workloads[:3]
	return r
}

// TestCompareMemoized asserts the suite memo: a second Compare with the
// same (config, arm), from the same or a different experiment, performs
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

	// The baseline is shared across arms on the same config, and the
	// baseline arm itself is the baseline suite...
	r.Compare(cfg, SpecMR8KB)
	r.Compare(cfg, SpecNone)
	if got := r.SuiteRuns(); got != runs+1 {
		t.Fatalf("MR-8KB and baseline arms on a cached config did %d new runs, want 1", got-runs)
	}

	// ...and a different core config misses on both arms.
	runs = r.SuiteRuns()
	r.Compare(ooo.Skylake2X(), SpecFVP)
	if got := r.SuiteRuns(); got != runs+2 {
		t.Fatalf("new config did %d new runs, want 2", got-runs)
	}
	if r.Err() != nil {
		t.Fatalf("runner error: %v", r.Err())
	}
}

// TestCompareWithMemoized asserts that an arm is keyed by value, as the
// epoch and table-size sweeps rely on: an FVP arm built afresh from the
// default configuration is SpecFVP and hits its memo, and an FVP arm with
// a different epoch is a suite of its own.
func TestCompareWithMemoized(t *testing.T) {
	r := memoRunner()
	cfg := ooo.Skylake()
	epochArm := func(epoch uint64) Spec {
		c := core.DefaultConfig()
		c.Epoch = epoch
		return Spec{Family: FamilyFVP, FVP: c}
	}

	first := r.Compare(cfg, SpecFVP)
	runs := r.SuiteRuns()
	if !reflect.DeepEqual(r.Compare(cfg, epochArm(400_000)), first) {
		t.Fatal("the default epoch returned pairs other than SpecFVP's")
	}
	if got := r.SuiteRuns(); got != runs {
		t.Fatalf("default epoch did %d new suite runs, want 0", got-runs)
	}
	a := r.Compare(cfg, epochArm(100_000))
	if got := r.SuiteRuns(); got != runs+1 {
		t.Fatalf("another epoch did %d new suite runs, want 1", got-runs)
	}
	runs = r.SuiteRuns()
	if !reflect.DeepEqual(r.Compare(cfg, epochArm(100_000)), a) {
		t.Fatal("memoized epoch arm returned different pairs")
	}
	if got := r.SuiteRuns(); got != runs {
		t.Fatalf("repeat epoch arm did %d new suite runs, want 0", got-runs)
	}
	if r.Err() != nil {
		t.Fatalf("runner error: %v", r.Err())
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

// TestEpochArmsShareIdleEpochs: the rows of epochs that no predictor
// instance can reach share one arm, the default arm when its 400k epoch
// cannot fire either, and the first idle epoch's otherwise. An epoch that
// can fire keeps its own arm, and so does every epoch of a sampled run.
func TestEpochArmsShareIdleEpochs(t *testing.T) {
	epochs := []uint64{25_000, 100_000, 400_000, 1_600_000, 6_400_000}
	for _, tc := range []struct {
		opt  Options
		cfg  ooo.Config
		want []uint64 // the epoch of each row's arm
	}{
		{Options{WarmupInsts: 20_000, MeasureInsts: 60_000}, ooo.Skylake(), []uint64{25_000, 400_000, 400_000, 400_000, 400_000}},
		{Options{WarmupInsts: 60_000, MeasureInsts: 180_000}, ooo.Skylake(), []uint64{25_000, 100_000, 400_000, 400_000, 400_000}},
		// 399,970 retirements plus two retire groups of 8 stay below 400k;
		// Skylake-2X's groups of 16 reach it, so there 400k fires.
		{Options{WarmupInsts: 99_970, MeasureInsts: 300_000}, ooo.Skylake(), []uint64{25_000, 100_000, 400_000, 400_000, 400_000}},
		{Options{WarmupInsts: 99_970, MeasureInsts: 300_000}, ooo.Skylake2X(), []uint64{25_000, 100_000, 400_000, 1_600_000, 1_600_000}},
		{Options{WarmupInsts: 20_000, MeasureInsts: 60_000, Sampling: Sampling{Units: 16}}, ooo.Skylake(), epochs},
	} {
		r := NewRunnerCtx(context.Background(), tc.opt)
		got := r.epochArms(tc.cfg, epochs)
		for i, epoch := range tc.want {
			want := SpecFVP
			want.FVP.Epoch = epoch
			if got[i] != want {
				t.Errorf("%+v on %s: epoch %d got the arm of epoch %d, want %d",
					tc.opt, tc.cfg.Name, epochs[i], got[i].FVP.Epoch, epoch)
			}
		}
	}
}
