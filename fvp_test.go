package fvp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"fvp/internal/harness"
	"fvp/internal/ooo"
)

func TestWorkloadsListed(t *testing.T) {
	ws := Workloads()
	if len(ws) != 60 {
		t.Fatalf("workloads = %d, want 60 (Table III)", len(ws))
	}
	cats := map[string]int{}
	for _, w := range ws {
		cats[w.Category]++
	}
	if len(cats) != 4 {
		t.Errorf("categories = %v", cats)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(RunSpec{Workload: "nope"}); err == nil {
		t.Error("unknown workload must error")
	}
	if _, err := Run(RunSpec{Workload: "mcf", Machine: "vax"}); err == nil {
		t.Error("unknown machine must error")
	}
	if _, err := Run(RunSpec{Workload: "mcf", Predictor: "psychic"}); err == nil {
		t.Error("unknown predictor must error")
	}
}

func TestRunAndCompare(t *testing.T) {
	c, err := Compare(RunSpec{
		Workload:     "hmmer",
		Predictor:    PredFVP,
		WarmupInsts:  5_000,
		MeasureInsts: 20_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Base.IPC <= 0 || c.Pred.IPC <= 0 {
		t.Fatalf("IPC: %+v", c)
	}
	if c.Base.Insts != 20_000 {
		t.Errorf("measured %d instructions", c.Base.Insts)
	}
	if s := c.Speedup(); s < 0.5 || s > 2 {
		t.Errorf("implausible speedup %v", s)
	}
}

func TestStorageBytes(t *testing.T) {
	fvpBytes, err := StorageBytes(PredFVP)
	if err != nil {
		t.Fatal(err)
	}
	if fvpBytes < 900 || fvpBytes > 1400 {
		t.Errorf("FVP storage = %d B, paper says ≈1.2 KB", fvpBytes)
	}
	comp8, _ := StorageBytes(PredComposite8KB)
	comp1, _ := StorageBytes(PredComposite1KB)
	if comp8 < 6*comp1 {
		t.Errorf("composite budgets: 8KB=%d 1KB=%d", comp8, comp1)
	}
	if n, _ := StorageBytes(PredNone); n != 0 {
		t.Errorf("baseline storage = %d", n)
	}
	if _, err := StorageBytes("x"); err == nil {
		t.Error("unknown predictor must error")
	}
}

func TestPredictorsAllResolvable(t *testing.T) {
	for _, p := range Predictors() {
		if _, err := StorageBytes(p); err != nil {
			t.Errorf("predictor %s: %v", p, err)
		}
	}
}

func TestExperimentsListed(t *testing.T) {
	es := Experiments()
	if len(es) < 15 {
		t.Fatalf("experiments = %d", len(es))
	}
	// An unknown id is rejected before any listed experiment runs.
	var buf bytes.Buffer
	if err := RunExperiments(context.Background(), []string{"table1", "no-such"}, &buf, 0, 0); err == nil {
		t.Error("unknown experiment must error")
	}
	if buf.Len() != 0 {
		t.Errorf("output before the unknown id was rejected:\n%s", buf.String())
	}
	// The static tables run instantly end-to-end through the public API.
	if err := RunExperiments(context.Background(), []string{"table1"}, &buf, 0, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Critical Instruction Table") {
		t.Errorf("table1 via public API:\n%s", buf.String())
	}
}

// TestRunExperimentsSharesSuites: experiments run in one call share one
// runner, so fig6 and fig8, which both compare FVP with the baseline on
// Skylake, simulate those two suites once between them. A runner per
// experiment would simulate four. Every experiment together simulates 44
// suites, one per (core config, arm) value: the epoch and table-size
// sweeps' default rows are SpecFVP and come from the memo.
func TestRunExperimentsSharesSuites(t *testing.T) {
	r := harness.NewRunnerCtx(context.Background(), harness.Options{WarmupInsts: 2_000, MeasureInsts: 5_000})
	r.Workloads = r.Workloads[:1]
	var buf bytes.Buffer
	if err := runExperiments(r, []string{"fig6", "fig8"}, &buf); err != nil {
		t.Fatal(err)
	}
	if got := r.SuiteRuns(); got != 2 {
		t.Errorf("fig6 then fig8 simulated %d suites, want 2", got)
	}
	for _, h := range []string{"==== fig6 — ", "==== fig8 — "} {
		if !strings.Contains(buf.String(), h) {
			t.Errorf("report lacks the %q header:\n%s", h, buf.String())
		}
	}

	r = harness.NewRunnerCtx(context.Background(), harness.Options{WarmupInsts: 2_000, MeasureInsts: 5_000})
	r.Workloads = r.Workloads[:1]
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	if err := runExperiments(r, ids, io.Discard); err != nil {
		t.Fatal(err)
	}
	// Skylake: the baseline and 21 arms (FVP, 4 prior art, 3 policies,
	// 2 components, 2 §VI-A variants, 5 other table sizes, 4 shoot-out
	// predictors; no epoch can fire in 2k+5k retirements, so every epoch
	// row shares FVP's suite). Skylake-2X: the baseline, FVP and 4 prior
	// art. Ablation: a baseline and FVP for each of 6 variants.
	// 22 + 6 + 12 = 40.
	if got, want := r.SuiteRuns(), 40; got != want {
		t.Errorf("every experiment simulated %d suites, want %d", got, want)
	}
}

func TestFVPStorageTable(t *testing.T) {
	items := FVPStorage()
	if len(items) != 5 {
		t.Fatalf("Table I rows = %d, want 5", len(items))
	}
	names := map[string]bool{}
	for _, it := range items {
		names[it.Name] = true
		if it.Bits <= 0 || it.Entries <= 0 {
			t.Errorf("bad row %+v", it)
		}
	}
	for _, want := range []string{"Critical Instruction Table", "Value Table",
		"MR Store/Load Table", "MR Value File", "RAT-PC"} {
		if !names[want] {
			t.Errorf("Table I row %q missing", want)
		}
	}
}

func TestBuildWorkloadSource(t *testing.T) {
	ex, mem, err := BuildWorkloadSource("omnetpp")
	if err != nil || ex == nil || mem == nil {
		t.Fatalf("ex=%v mem=%v err=%v", ex, mem, err)
	}
	if _, _, err := BuildWorkloadSource("nope"); err == nil {
		t.Error("unknown workload must error")
	}
}

func TestValidateBudgetCaps(t *testing.T) {
	_, err := Run(RunSpec{Workload: "mcf", MeasureInsts: MaxMeasureInsts + 1})
	var ise *InvalidSpecError
	if !errors.As(err, &ise) {
		t.Fatalf("over-budget measure: err = %v, want *InvalidSpecError", err)
	}
	if ise.Field != "measure_insts" || ise.Limit != MaxMeasureInsts {
		t.Errorf("typed error fields: %+v", ise)
	}
	if ise.Error() == "" {
		t.Error("empty error text")
	}
	if _, err := Run(RunSpec{Workload: "mcf", WarmupInsts: MaxWarmupInsts + 1,
		MeasureInsts: 1000}); !errors.As(err, &ise) {
		t.Errorf("over-budget warmup: err = %v, want *InvalidSpecError", err)
	}
	// The caps are inclusive: a spec at the cap is valid.
	if err := Validate(RunSpec{Workload: "mcf", Machine: Skylake,
		Predictor: PredNone, MeasureInsts: MaxMeasureInsts}); err != nil {
		t.Errorf("spec at the cap must validate: %v", err)
	}
}

func TestCompareSuiteContextSubset(t *testing.T) {
	cs, err := CompareSuiteContext(context.Background(), SuiteSpec{
		Predictor:    PredFVP,
		WarmupInsts:  2_000,
		MeasureInsts: 10_000,
		Workloads:    []string{"hmmer", "mcf"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 {
		t.Fatalf("comparisons = %d, want 2", len(cs))
	}
	got := map[string]bool{}
	for _, c := range cs {
		got[c.Workload] = true
		if c.Base.IPC <= 0 || c.Pred.IPC <= 0 {
			t.Errorf("%s: %+v", c.Workload, c)
		}
	}
	if !got["hmmer"] || !got["mcf"] {
		t.Errorf("workloads covered: %v", got)
	}

	if _, err := CompareSuiteContext(context.Background(), SuiteSpec{
		Predictor: PredFVP, Workloads: []string{"nope"},
	}); err == nil {
		t.Error("unknown workload in subset must error")
	}
	// The baseline arm pairs the baseline suite with itself. Functional
	// warmup stamps each run with its wall-clock fast-forward rate, so
	// equal metrics mean the suite was simulated once.
	cs, err = CompareSuiteContext(context.Background(), SuiteSpec{
		Predictor:    PredNone,
		WarmupInsts:  2_000,
		MeasureInsts: 10_000,
		WarmupMode:   "functional",
		Workloads:    []string{"hmmer", "mcf"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cs {
		if !reflect.DeepEqual(c.Base, c.Pred) {
			t.Errorf("%s: PredNone Base %+v differs from Pred %+v", c.Workload, c.Base, c.Pred)
		}
	}

	suiteRejects(t, SuiteSpec{Predictor: "fvq", Workloads: []string{"mcf"}},
		RunSpec{Workload: "mcf", Predictor: "fvq"}, "predictor")
	suiteRejects(t, SuiteSpec{WarmupMode: "fnctional", Workloads: []string{"mcf"}},
		RunSpec{Workload: "mcf", WarmupMode: "fnctional"}, "warmup mode")
	suiteRejects(t, SuiteSpec{MeasureInsts: MaxMeasureInsts + 1, Workloads: []string{"mcf"}},
		RunSpec{Workload: "mcf", MeasureInsts: MaxMeasureInsts + 1}, "measure_insts")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CompareSuiteContext(ctx, SuiteSpec{Predictor: PredFVP,
		Workloads: []string{"hmmer"}, MeasureInsts: 10_000}); err == nil {
		t.Error("canceled context must error")
	}
}

// suiteRejects checks that suite fails up front exactly as Validate fails
// on run, one of its runs, with an error naming want: the Kind of an
// *UnknownNameError or the Field of an *InvalidSpecError.
func suiteRejects(t *testing.T, suite SuiteSpec, run RunSpec, want string) {
	t.Helper()
	_, err := CompareSuiteContext(context.Background(), suite)
	if one := Validate(run); !reflect.DeepEqual(err, one) {
		t.Errorf("suite %+v: err = %v, want %v as Validate gives", suite, err, one)
	}
	var une *UnknownNameError
	var ise *InvalidSpecError
	got := ""
	if errors.As(err, &une) {
		got = une.Kind
	} else if errors.As(err, &ise) {
		got = ise.Field
	}
	if got != want {
		t.Errorf("suite %+v: err = %v names %q, want %q", suite, err, got, want)
	}
}

// Validate runs on every fvpd submit and every library run, so a valid
// spec must not allocate.
func TestValidateAllocs(t *testing.T) {
	for _, spec := range []RunSpec{
		{Workload: "omnetpp", Machine: Skylake2X, Predictor: PredFVP, WarmupInsts: 5_000, MeasureInsts: 20_000},
		{Workload: "omnetpp", Predictor: PredFVP, MeasureInsts: 100_000, SampleUnits: 4, SampleUnitInsts: 1_000},
	} {
		if n := testing.AllocsPerRun(100, func() { _ = Validate(spec) }); n != 0 {
			t.Errorf("Validate(%+v): %v allocs per call, want 0", spec, n)
		}
	}
}

// TestRunSpecTaps drives the telemetry taps through the public façade:
// interval samples must cover the measured region exactly, and the trace
// must capture instructions — without perturbing the run's metrics.
func TestRunSpecTaps(t *testing.T) {
	spec := RunSpec{Workload: "hmmer", Predictor: PredFVP,
		WarmupInsts: 2_000, MeasureInsts: 20_000}
	plain, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	var samples []IntervalMetrics
	tapped := spec
	tapped.Observer = observerFunc(func(m IntervalMetrics) { samples = append(samples, m) })
	tapped.ObserverInterval = 2_000
	tapped.Tracer = NewPipeTrace(128)
	m, err := Run(tapped)
	if err != nil {
		t.Fatal(err)
	}
	if m != plain {
		t.Errorf("taps perturbed the run:\n  plain  %+v\n  tapped %+v", plain, m)
	}
	if len(samples) < 2 {
		t.Fatalf("samples = %d", len(samples))
	}
	var insts uint64
	for _, s := range samples {
		insts += s.Insts
	}
	if insts != m.Insts {
		t.Errorf("interval insts sum to %d, run measured %d", insts, m.Insts)
	}
	if n := tapped.Tracer.Insts(); n != 128 {
		t.Errorf("trace captured %d instructions, want full 128 window", n)
	}
}

// TestCompareTapsPredictorRunOnly: Compare hands the spec's taps to the
// predictor run alone. The Observer sees exactly the predictor run's
// instructions, and the PipeTrace holds the same timelines as a tapped run
// of the predictor spec by itself.
func TestCompareTapsPredictorRunOnly(t *testing.T) {
	spec := RunSpec{Workload: "hmmer", Predictor: PredFVP,
		WarmupInsts: 2_000, MeasureInsts: 5_000, ObserverInterval: 1_000}
	var insts uint64
	spec.Observer = observerFunc(func(m IntervalMetrics) { insts += m.Insts })
	spec.Tracer = NewPipeTrace(64)
	c, err := CompareContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if insts != c.Pred.Insts {
		t.Errorf("Observer saw %d instructions, predictor run measured %d", insts, c.Pred.Insts)
	}

	alone := spec
	alone.Observer = nil
	alone.Tracer = NewPipeTrace(64)
	if _, err := RunContext(context.Background(), alone); err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := spec.Tracer.WriteChromeTrace(&got); err != nil {
		t.Fatal(err)
	}
	if err := alone.Tracer.WriteChromeTrace(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("Compare's trace (%d bytes) differs from the predictor run's own (%d bytes)", got.Len(), want.Len())
	}
}

type observerFunc func(IntervalMetrics)

func (f observerFunc) OnInterval(m IntervalMetrics) { f(m) }

func TestGeomeanHelper(t *testing.T) {
	cs := []Comparison{
		{Base: Metrics{IPC: 1}, Pred: Metrics{IPC: 2}},
		{Base: Metrics{IPC: 2}, Pred: Metrics{IPC: 1}},
	}
	if g := Geomean(cs); g < 0.99 || g > 1.01 {
		t.Errorf("geomean = %v", g)
	}
}

// ToRecord must derive the speedup and the top-down cycle shares from a
// hand-built Metrics, label the row from the spec, and keep the JSON
// field names fvpsim -json has always printed.
func TestToRecordShares(t *testing.T) {
	var bd [9]uint64
	bd[ooo.CycRetiring] = 60
	bd[ooo.CycMemDRAM] = 30
	bd[ooo.CycFrontend] = 10
	spec := RunSpec{Workload: "omnetpp", Predictor: PredFVP}
	pred := Metrics{IPC: 1.2, Cycles: 100, CycleBreakdown: bd, Coverage: 0.25, Accuracy: 0.999}
	rec := ToRecord(spec, &Metrics{IPC: 1.0}, pred)
	if rec.Speedup < 1.19 || rec.Speedup > 1.21 {
		t.Errorf("speedup = %v, want 1.2", rec.Speedup)
	}
	if rec.Retiring != 0.6 || rec.Frontend != 0.1 {
		t.Errorf("cycle shares: %+v", rec)
	}
	if rec.MemStall != 0.3 {
		t.Errorf("mem stall share = %v, want 0.3", rec.MemStall)
	}
	if rec.Workload != "omnetpp" || rec.Category != "ISPEC06" || rec.Core != "Skylake" ||
		rec.Predictor != string(PredFVP) || rec.BaseIPC != 1.0 || rec.PredIPC != 1.2 {
		t.Errorf("labels: %+v", rec)
	}
	if alone := ToRecord(spec, nil, pred); alone.BaseIPC != 0 || alone.Speedup != 0 {
		t.Errorf("standalone run: base_ipc %v speedup %v, want 0 and 0", alone.BaseIPC, alone.Speedup)
	}

	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]any
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"workload", "category", "core", "predictor", "base_ipc", "pred_ipc",
		"speedup", "coverage", "accuracy", "vp_flushes", "retiring", "mem_stall", "frontend",
		"skipped_cycles", "skip_ratio"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("JSON row lacks %q: %s", k, data)
		}
	}
}
