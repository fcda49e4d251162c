package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"fvp"
)

// TestMain serves host probes when the benchmark starts the test binary
// as its probe child.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == "-probe" {
		if err := serveProbes(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at the tiny scale, untraced and traced,
// and checks that each reports every metric BENCHMARK.json names, with its
// unit, and that every op matched its expected output.
func TestSmoke(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			o := runOptions{seed: 7, dur: 300 * time.Millisecond, trace: trace, scale: scaleTiny, traceDir: t.TempDir()}
			res, err := runWorkload(ctx, w, o, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct %v, %d of %d ops failed\n%s", w.name, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			defs := bf.EndToEnd
			if trace {
				defs = bf.PerLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v, want a number in %s", w.name, trace, d.Name, m, d.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, m.Value)
				}
				line := w.name + " " + d.Name + " "
				if !strings.Contains(out.String(), line) || !strings.Contains(out.String(), " "+d.Unit+"\n") {
					t.Errorf("%s trace=%v: no %q line with unit %s", w.name, trace, line, d.Unit)
				}
			}
		}
	}
}

// TestBenchmarkFile keeps BENCHMARK.json in step with the program.
func TestBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if _, ok := workloadByName(w.Name); !ok || w.Why == "" {
			t.Errorf("BENCHMARK.json workload %q: not in the program, or no why", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json has workloads %v; the program has %d", names, len(workloads))
	}
	strip := func(ds []metricDef) []metricDef {
		out := slices.Clone(ds)
		for i := range out {
			out[i].Bound = 0
		}
		return out
	}
	if !reflect.DeepEqual(strip(bf.EndToEnd), endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %+v, program %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's")
	}
	for _, d := range bf.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v, want in (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestComposedMatchesLibrary checks that the traced run's composition of
// public calls simulates exactly what fvp.RunContext does, elided-cycle
// counters included, for detailed and sampled runs on both machines.
func TestComposedMatchesLibrary(t *testing.T) {
	ctx := context.Background()
	var specs []fvp.RunSpec
	for _, w := range []string{"omnetpp", "mcf", "lbm"} {
		for _, p := range arms {
			specs = append(specs,
				fvp.RunSpec{Workload: w, Machine: fvp.Skylake2X, Predictor: p, WarmupInsts: 3000, MeasureInsts: 8000},
				fvp.RunSpec{Workload: w, Predictor: p, MeasureInsts: 100_000, SampleUnits: 3, SampleUnitInsts: 1000,
					SampleWarmupInsts: 5000, SampleSeed: 2, RegionWorkers: 1})
		}
	}
	tr := newTracer()
	for _, s := range specs {
		want, err := fvp.RunContext(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := composedRun(ctx, tr, specKey(s), s)
		if err != nil {
			t.Fatal(err)
		}
		want.FFInstsPerSec = 0
		if !reflect.DeepEqual(got, want) {
			gj, _ := json.Marshal(got)
			wj, _ := json.Marshal(want)
			t.Errorf("%s:\ncomposed %s\nlibrary  %s", specKey(s), gj, wj)
		}
	}
	if len(tr.snapshot()) == 0 {
		t.Error("composed runs recorded no spans")
	}
}

// TestPermute checks that a seed reorders the inputs without changing the
// set, and keeps each block's mix.
func TestPermute(t *testing.T) {
	for _, w := range workloads {
		ins := w.inputs(scaleTiny)
		block := blockOf(ins)
		a, b := w.permute(ins, 1), w.permute(ins, 2)
		keys := func(xs []input) []string {
			var ks []string
			for _, x := range xs {
				ks = append(ks, x.key)
			}
			return ks
		}
		if slices.Equal(keys(a), keys(b)) && len(ins) > 2 {
			t.Errorf("%s: seeds 1 and 2 give the same order", w.name)
		}
		for _, p := range [][]input{a, b} {
			got := keys(p)
			slices.Sort(got)
			want := keys(ins)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Errorf("%s: permuted inputs are not the canonical set", w.name)
			}
			// Each block holds one spec per workload and predictor.
			for s := 0; s < len(p); s += block {
				mix := map[string]int{}
				for _, in := range p[s : s+block] {
					mix[mixOf(in.spec)]++
				}
				for k, n := range mix {
					if n != 1 {
						t.Errorf("%s: block at %d holds %s %d times", w.name, s, k, n)
					}
				}
			}
		}
	}
}

// TestQuartiles pins the quartiles to Python's statistics.quantiles(xs,
// n=4), which the spread of repeated runs is judged by.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	rate := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, by float64) []float64 {
		out := slices.Clone(xs)
		for i := range out {
			out[i] *= by
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name   string
		p, c   []float64
		def    metricDef
		expect string
	}{
		{"faster in every pair", steady, shift(steady, 1.05), rate, "improved"},
		{"same", steady, steady, rate, "unchanged"},
		{"slower beyond the bound", steady, shift(steady, 0.8), rate, "regressed"},
		{"slower within the bound", steady, shift(steady, 0.95), rate, "unchanged"},
		{"too few pairs to claim", steady[:5], shift(steady[:5], 1.05), rate, "unchanged"},
		{"parent spread wider than the bound", noisy, shift(noisy, 0.95), rate, "unresolved"},
		{"every change run beats every parent run", noisy, shift(steady, 2), rate, "improved"},
		{"lower is better", steady, shift(steady, 1.2), metricDef{Better: "lower", Bound: 0.1}, "regressed"},
	} {
		if got := judge(c.p, c.c, c.def).verdict; got != c.expect {
			t.Errorf("%s: %s, want %s", c.name, got, c.expect)
		}
	}
}
