package fvp

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestValidateSampling(t *testing.T) {
	base := RunSpec{Workload: "mcf", WarmupInsts: 1_000, MeasureInsts: 100_000}

	cases := []struct {
		name    string
		mutate  func(*RunSpec)
		wantErr bool
		field   string
	}{
		{"disabled", func(s *RunSpec) {}, false, ""},
		{"units", func(s *RunSpec) { s.SampleUnits = 8 }, false, ""},
		{"target only", func(s *RunSpec) { s.SampleTargetCI = 0.02 }, false, ""},
		{"at cap", func(s *RunSpec) {
			s.MeasureInsts = MaxMeasureInsts
			s.SampleUnits = MaxSampleUnits
		}, false, ""},
		{"one unit", func(s *RunSpec) { s.SampleUnits = 1 }, true, "sample_units"},
		{"negative units", func(s *RunSpec) { s.SampleUnits = -4 }, true, "sample_units"},
		{"over cap", func(s *RunSpec) { s.SampleUnits = MaxSampleUnits + 1 }, true, "sample_units"},
		{"bad target", func(s *RunSpec) { s.SampleTargetCI = 1.0 }, true, "sample_target_ci"},
		{"negative max", func(s *RunSpec) {
			s.SampleUnits = 4
			s.SampleMaxUnits = -1
		}, true, "sample_max_units"},
		{"budget over region", func(s *RunSpec) {
			s.SampleUnits = 4
			s.SampleUnitInsts = 50_000
		}, true, "sample_units"},
		{"with regions", func(s *RunSpec) {
			s.SampleUnits = 4
			s.Regions = 2
		}, true, "sample_units"},
		{"with observer", func(s *RunSpec) {
			s.SampleUnits = 4
			s.Observer = observerFunc(func(IntervalMetrics) {})
		}, true, "sample_units"},
		{"with tracer", func(s *RunSpec) {
			s.SampleUnits = 4
			s.Tracer = NewPipeTrace(16)
		}, true, "sample_units"},
		{"negative target", func(s *RunSpec) { s.SampleTargetCI = -0.1 }, true, "sample_target_ci"},
		{"max over cap", func(s *RunSpec) {
			s.SampleUnits = 4
			s.SampleMaxUnits = MaxSampleUnits + 1
		}, true, "sample_max_units"},
		{"unit length over cap", func(s *RunSpec) {
			s.SampleUnits = 4
			s.SampleUnitInsts = MaxMeasureInsts + 1
		}, true, "sample_unit_insts"},
		{"unit warmup over cap", func(s *RunSpec) {
			s.SampleUnits = 4
			s.SampleWarmupInsts = MaxWarmupInsts + 1
		}, true, "sample_warmup_insts"},
		{"caps ignored unsampled", func(s *RunSpec) { s.SampleMaxUnits = MaxSampleUnits + 1 }, false, ""},
	}
	wire := wireNames()
	for _, c := range cases {
		s := base
		c.mutate(&s)
		err := Validate(s)
		if !c.wantErr {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		var ise *InvalidSpecError
		if !errors.As(err, &ise) {
			t.Errorf("%s: err = %v, want *InvalidSpecError", c.name, err)
			continue
		}
		if ise.Field != c.field {
			t.Errorf("%s: field = %q, want %q", c.name, ise.Field, c.field)
		}
		if !wire[ise.Field] {
			t.Errorf("%s: field %q is not a RunSpec wire name", c.name, ise.Field)
		}
	}

	// The unit minimum is a reason, not a cap, and the message must say it.
	s := base
	s.SampleUnits = 1
	err := Validate(s)
	var ise *InvalidSpecError
	if !errors.As(err, &ise) || ise.Value != 0 || ise.Limit != 0 ||
		!strings.Contains(err.Error(), "at least two sample units") {
		t.Errorf("one unit: err = %#v (%v), want the variance-estimate reason", ise, err)
	}
}

// wireNames is the set of RunSpec's JSON field names.
func wireNames() map[string]bool {
	names := map[string]bool{}
	rt := reflect.TypeOf(RunSpec{})
	for i := 0; i < rt.NumField(); i++ {
		if name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ","); name != "-" {
			names[name] = true
		}
	}
	return names
}

// A spec that relies on sampling defaults and one that spells them out must
// normalize identically — that equality is what the fvpd result cache keys
// on.
func TestNormalizedSamplingDefaults(t *testing.T) {
	implicit := RunSpec{Workload: "mcf", SampleTargetCI: 0.02}.Normalized()
	explicit := RunSpec{
		Workload: "mcf", SampleTargetCI: 0.02,
		SampleUnits: implicit.SampleUnits, SampleUnitInsts: implicit.SampleUnitInsts,
		SampleWarmupInsts: implicit.SampleWarmupInsts, SampleMaxUnits: implicit.SampleMaxUnits,
	}.Normalized()
	if implicit != explicit {
		t.Errorf("normalization not idempotent:\n got: %+v\nwant: %+v", implicit, explicit)
	}
	if implicit.SampleUnits < 2 || implicit.SampleUnitInsts == 0 ||
		implicit.SampleWarmupInsts == 0 || implicit.SampleMaxUnits == 0 {
		t.Errorf("sampling defaults not made explicit: %+v", implicit)
	}
	// A non-sampled spec must not grow sampling fields.
	plain := RunSpec{Workload: "mcf"}.Normalized()
	if plain.SampleUnits != 0 || plain.SampleUnitInsts != 0 {
		t.Errorf("non-sampled spec normalized sampling fields: %+v", plain)
	}
}

// Sampled runs must surface through the façade: the report block with its
// confidence interval, the stitched point metrics, and the wire names.
func TestRunSampledThroughFacade(t *testing.T) {
	m, err := Run(RunSpec{
		Workload: "omnetpp", Predictor: PredFVP,
		WarmupInsts: 5_000, MeasureInsts: 200_000,
		SampleUnits: 8, SampleUnitInsts: 1_000, SampleWarmupInsts: 2_000, SampleSeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Sampling == nil {
		t.Fatal("sampled run returned no Sampling block")
	}
	if m.Sampling.Units != 8 || m.Sampling.UnitInsts != 1_000 || m.Sampling.Rounds != 1 {
		t.Errorf("sampling block: %+v", m.Sampling)
	}
	if m.Sampling.SampledInsts != m.Insts {
		t.Errorf("SampledInsts = %d, Insts = %d (stitched metrics must cover the units)",
			m.Sampling.SampledInsts, m.Insts)
	}
	if m.Sampling.IPC.Mean <= 0 || m.Sampling.IPC.CIHalf < 0 {
		t.Errorf("IPC estimate: %+v", m.Sampling.IPC)
	}
	if m.IPC <= 0 {
		t.Errorf("stitched IPC = %v", m.IPC)
	}

	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"sampling":`, `"units":8`, `"sampled_insts":`, `"rel_ci":`, `"ci_half":`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("metrics JSON lacks %s: %s", key, raw)
		}
	}

	// Full-detail runs must not carry the block.
	full, err := Run(RunSpec{Workload: "mcf", WarmupInsts: 1_000, MeasureInsts: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	if full.Sampling != nil {
		t.Errorf("full-detail run grew a Sampling block: %+v", full.Sampling)
	}
}

// ToRecord must flatten the sampling statistics into the report row.
func TestToRecordSamplingFields(t *testing.T) {
	spec := RunSpec{Workload: "omnetpp", Predictor: PredFVP,
		WarmupInsts: 5_000, MeasureInsts: 100_000, SampleUnits: 4, SampleUnitInsts: 500}
	m, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := ToRecord(spec, nil, m)
	if rec.SampleUnits != 4 {
		t.Errorf("SampleUnits = %d, want 4", rec.SampleUnits)
	}
	if rec.SampledInsts != m.Sampling.SampledInsts {
		t.Errorf("SampledInsts = %d, want %d", rec.SampledInsts, m.Sampling.SampledInsts)
	}
	if rec.IPCRelCI != m.Sampling.IPC.RelCI {
		t.Errorf("IPCRelCI = %v, want %v", rec.IPCRelCI, m.Sampling.IPC.RelCI)
	}
}

// The suite sweep must propagate sampling to every run of both arms.
func TestCompareSuiteSampled(t *testing.T) {
	cs, err := CompareSuiteContext(context.Background(), SuiteSpec{
		Predictor:   PredFVP,
		WarmupInsts: 2_000, MeasureInsts: 100_000,
		Workloads:   []string{"mcf", "hmmer"},
		SampleUnits: 4, SampleUnitInsts: 500, SampleSeed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 {
		t.Fatalf("got %d comparisons, want 2", len(cs))
	}
	for _, c := range cs {
		if c.Base.Sampling == nil || c.Pred.Sampling == nil {
			t.Fatalf("%s: sampling block missing (base %v, pred %v)",
				c.Workload, c.Base.Sampling != nil, c.Pred.Sampling != nil)
		}
		if c.Base.Sampling.Units != 4 || c.Pred.Sampling.Units != 4 {
			t.Errorf("%s: units base=%d pred=%d, want 4",
				c.Workload, c.Base.Sampling.Units, c.Pred.Sampling.Units)
		}
	}
	// Invalid sampling shapes must be rejected up front.
	_, err = CompareSuiteContext(context.Background(), SuiteSpec{
		Workloads: []string{"mcf"}, SampleUnits: 1,
	})
	var ise *InvalidSpecError
	if !errors.As(err, &ise) {
		t.Errorf("suite with 1 unit: err = %v, want *InvalidSpecError", err)
	}
	suiteRejects(t,
		SuiteSpec{Workloads: []string{"mcf"}, MeasureInsts: 10_000, SampleUnits: 4, SampleUnitInsts: 5_000},
		RunSpec{Workload: "mcf", MeasureInsts: 10_000, SampleUnits: 4, SampleUnitInsts: 5_000},
		"sample_units")
}
