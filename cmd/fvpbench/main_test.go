package main

import (
	"encoding/json"
	"os"
	"testing"
)

// baselinePath is the committed artifact the CI bench-gate job gates
// against.
const baselinePath = "../../BENCH_core.json"

// TestCheckGate holds -gate to the job it exists for. The committed
// baseline must parse into Report with every gated value nonzero, because
// checkGate skips a row whose baseline reads 0: a schema change that broke
// one of their JSON tags would quietly stop gating it. Against that
// baseline, a drop beyond gateDropTolerance in any one rate row must fail,
// a smaller one must pass, and a batched speedup under svcSpeedupFloor must
// fail.
func TestCheckGate(t *testing.T) {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		t.Fatal(err)
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("parse %s: %v", baselinePath, err)
	}
	rates := []struct {
		name string
		row  func(*Report) *float64
	}{
		{"suite.sim_mips", func(r *Report) *float64 { return &r.Suite.SimMIPS }},
		{"suite_functional.sim_mips", func(r *Report) *float64 { return &r.SuiteFunctional.SimMIPS }},
		{"sampling.suite.sim_mips", func(r *Report) *float64 { return &r.Sampling.Suite.SimMIPS }},
		{"service.batched.submits_per_sec", func(r *Report) *float64 { return &r.Service.Batched.SubmitsPerSec }},
	}
	for _, r := range rates {
		if v := *r.row(&base); v <= 0 {
			t.Errorf("baseline %s = %v: the gate would skip it", r.name, v)
		}
	}
	if base.Service.BatchedSpeedup <= 0 {
		t.Errorf("baseline service.batched_speedup = %v: the gate would skip it", base.Service.BatchedSpeedup)
	}

	// fresh is a run that matches the baseline, with its batched speedup
	// exactly at the floor so that check passes whatever ratio the
	// baseline's host recorded.
	fresh := func() Report {
		rep := base
		rep.Service.BatchedSpeedup = svcSpeedupFloor
		return rep
	}
	if err := checkGate(baselinePath, fresh()); err != nil {
		t.Errorf("a run matching the baseline failed the gate: %v", err)
	}
	for _, r := range rates {
		for _, c := range []struct {
			scale float64
			fail  bool
		}{{0.96, false}, {0.94, true}} {
			rep := fresh()
			*r.row(&rep) *= c.scale
			if err := checkGate(baselinePath, rep); (err != nil) != c.fail {
				t.Errorf("%s at %.0f%% of baseline: gate error %v, want failure %v",
					r.name, c.scale*100, err, c.fail)
			}
		}
	}
	rep := fresh()
	rep.Service.BatchedSpeedup = 1.9
	if err := checkGate(baselinePath, rep); err == nil {
		t.Errorf("batched speedup 1.9x passed the %.1fx floor", svcSpeedupFloor)
	}
}
