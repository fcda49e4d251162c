package harness

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"fvp/internal/ooo"
	"fvp/internal/workload"
)

// runOne is RunOneCtx for tests: any error fails t.
func runOne(t testing.TB, w workload.Workload, cfg ooo.Config, pf PredFactory, opt Options) Result {
	t.Helper()
	r, err := RunOneCtx(context.Background(), w, cfg, pf, opt)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return r
}

// runSuite is RunSuiteCtx for tests: any error fails t.
func runSuite(t testing.TB, ws []workload.Workload, cfg ooo.Config, pf PredFactory, opt Options) []Result {
	t.Helper()
	out, err := RunSuiteCtx(context.Background(), ws, cfg, pf, opt)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestFactoriesConstructible(t *testing.T) {
	specs := []Spec{
		SpecNone, SpecFVP, SpecFVPRegOnly, SpecFVPMemOnly, SpecFVPL1Miss,
		SpecFVPL1MissOnl, SpecFVPOracle, SpecFVPAllTypes, SpecFVPBrChains,
		SpecMR8KB, SpecMR1KB, SpecComp8KB, SpecComp1KB, SpecLVP, SpecStride,
	}
	for _, s := range specs {
		p := Factory(s)()
		if p == nil {
			t.Fatalf("factory %s returned nil", s)
		}
		if p.StorageBits() < 0 {
			t.Errorf("%s storage negative", s)
		}
	}
}

func TestUnknownSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown spec must panic")
		}
	}()
	Factory(Spec("nope"))
}

func TestRunOneProducesMetrics(t *testing.T) {
	w, _ := workload.ByName("hmmer")
	r := runOne(t, w, ooo.Skylake(), nil, Options{WarmupInsts: 5000, MeasureInsts: 20000})
	if r.IPC <= 0 {
		t.Fatalf("IPC = %v", r.IPC)
	}
	if r.Stats.Retired != 20000 {
		t.Errorf("measured %d instructions, want 20000", r.Stats.Retired)
	}
	if r.Workload != "hmmer" || r.Category != workload.ISPEC06 {
		t.Errorf("labels: %+v", r)
	}
	if r.Predictor != "baseline" {
		t.Errorf("predictor label = %q", r.Predictor)
	}
}

func TestStatsDelta(t *testing.T) {
	a := ooo.RunStats{Cycles: 100, Retired: 50, RetiredLoads: 10}
	b := ooo.RunStats{Cycles: 300, Retired: 150, RetiredLoads: 40}
	d := statsDelta(a, b)
	if d.Cycles != 200 || d.Retired != 100 || d.RetiredLoads != 30 {
		t.Errorf("delta = %+v", d)
	}
}

func TestGeomean(t *testing.T) {
	mk := func(b, p float64) Pair {
		return Pair{Base: Result{IPC: b}, Pred: Result{IPC: p}}
	}
	pairs := []Pair{mk(1, 2), mk(1, 0.5)}
	if g := Geomean(pairs); math.Abs(g-1.0) > 1e-9 {
		t.Errorf("geomean of 2x and 0.5x = %v, want 1", g)
	}
	if g := Geomean(nil); g != 1 {
		t.Errorf("empty geomean = %v", g)
	}
	if s := mk(0, 5).Speedup(); s != 1 {
		t.Errorf("zero-baseline speedup = %v, want 1 (guarded)", s)
	}
}

func TestByCategoryGroups(t *testing.T) {
	pairs := []Pair{
		{Base: Result{Category: workload.ISPEC06, IPC: 1}, Pred: Result{IPC: 1}},
		{Base: Result{Category: workload.Server, IPC: 1}, Pred: Result{IPC: 1}},
		{Base: Result{Category: workload.Server, IPC: 1}, Pred: Result{IPC: 1}},
	}
	g := ByCategory(pairs)
	if len(g[workload.Server]) != 2 || len(g[workload.ISPEC06]) != 1 {
		t.Errorf("grouping wrong: %v", g)
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Experiments() {
		if ids[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		ids[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
	for _, want := range []string{"table1", "table2", "table3", "fig6", "fig7",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "alltypes",
		"branchchains", "epoch", "tables"} {
		if !ids[want] {
			t.Errorf("experiment %q missing", want)
		}
	}
	if _, ok := ExperimentByID("fig6"); !ok {
		t.Error("ExperimentByID(fig6) failed")
	}
	if _, ok := ExperimentByID("nope"); ok {
		t.Error("unknown id resolved")
	}
}

func TestStaticTables(t *testing.T) {
	r := NewRunnerCtx(context.Background(), Options{WarmupInsts: 1, MeasureInsts: 1})
	var buf bytes.Buffer
	if err := runTable1(r, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Value Table") || !strings.Contains(buf.String(), "1.2 KB") {
		t.Errorf("table1 output:\n%s", buf.String())
	}
	buf.Reset()
	if err := runTable2(r, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Skylake-2X") || !strings.Contains(buf.String(), "ROB 448") {
		t.Errorf("table2 output:\n%s", buf.String())
	}
	buf.Reset()
	if err := runTable3(r, &buf); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"ISPEC06", "Server", "mcf", "cassandra"} {
		if !strings.Contains(buf.String(), s) {
			t.Errorf("table3 missing %q", s)
		}
	}
}

func TestRunnerCachesBaseline(t *testing.T) {
	r := NewRunnerCtx(context.Background(), Options{WarmupInsts: 2000, MeasureInsts: 5000})
	r.Workloads = r.Workloads[:2]
	a := r.Baseline(ooo.Skylake())
	b := r.Baseline(ooo.Skylake())
	if &a[0] != &b[0] {
		t.Error("baseline results must be cached")
	}
}

// TestSmallFig6EndToEnd runs the fig6 driver on a two-workload subset.
func TestSmallFig6EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end experiment")
	}
	r := NewRunnerCtx(context.Background(), Options{WarmupInsts: 20_000, MeasureInsts: 60_000})
	ws := make([]workload.Workload, 0, 2)
	for _, n := range []string{"omnetpp", "leela"} {
		w, _ := workload.ByName(n)
		ws = append(ws, w)
	}
	r.Workloads = ws
	var buf bytes.Buffer
	if err := runFig6(r, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Geomean") {
		t.Errorf("fig6 output:\n%s", out)
	}
}
