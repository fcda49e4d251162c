package simd

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"fvp"
)

// Sampling parameters are part of a run's identity: a sampled estimate and
// the full-detail run of the same region must never share a cache entry,
// and two sampled runs with different plans are different results.
func TestSpecKeySamplingFields(t *testing.T) {
	base := fvp.RunSpec{Workload: "omnetpp", WarmupInsts: 1_000, MeasureInsts: 200_000}

	sampled := base
	sampled.SampleTargetCI = 0.02
	if specKey(base) == specKey(sampled) {
		t.Error("sampled and full-detail runs must hash differently")
	}

	explicit := sampled
	norm := sampled.Normalized()
	explicit.SampleUnits = norm.SampleUnits
	explicit.SampleUnitInsts = norm.SampleUnitInsts
	explicit.SampleWarmupInsts = norm.SampleWarmupInsts
	explicit.SampleMaxUnits = norm.SampleMaxUnits
	if specKey(sampled) != specKey(explicit) {
		t.Error("implicit sampling defaults must hash equal to their explicit form")
	}

	units := sampled
	units.SampleUnits = 16
	if specKey(sampled) == specKey(units) {
		t.Error("different unit counts must hash differently")
	}

	seed := sampled
	seed.SampleSeed = 7
	if specKey(sampled) == specKey(seed) {
		t.Error("different sampling seeds must hash differently")
	}
}

func TestHTTPSamplingValidation(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})

	resp, err := http.Post(srv.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"workload":"omnetpp","measure_insts":100000,"sample_units":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("one sample unit: HTTP %d, want 400", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "sample_units") {
		t.Errorf("400 body should name the sample_units field, got %s", body)
	}
}

// A sampled run must flow through the service end to end: spec fields
// survive the round trip, the result carries the sampling report with its
// confidence interval, and the fleet-level sampled-instruction counter
// advances.
func TestHTTPSampledRun(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})

	resp, out := postRuns(t, srv.URL+"/v1/runs?wait=1",
		`{"workload":"omnetpp","predictor":"fvp","warmup_insts":5000,`+
			`"measure_insts":200000,"sample_units":8,"sample_unit_insts":1000,`+
			`"sample_warmup_insts":2000,"sample_seed":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d, want 200", resp.StatusCode)
	}
	if len(out.Jobs) != 1 || out.Jobs[0].State != StateDone {
		t.Fatalf("jobs: %+v", out.Jobs)
	}
	job := out.Jobs[0]
	if job.Spec.SampleUnits != 8 || job.Spec.SampleUnitInsts != 1_000 {
		t.Errorf("normalized spec lost sampling fields: %+v", job.Spec)
	}
	m := metricsOf(t, job)
	if m.Sampling == nil {
		t.Fatal("sampled run returned no sampling block")
	}
	if m.Sampling.Units != 8 || m.Sampling.SampledInsts == 0 {
		t.Errorf("sampling block: %+v", m.Sampling)
	}
	if m.Sampling.IPC.Mean <= 0 {
		t.Errorf("IPC estimate: %+v", m.Sampling.IPC)
	}

	if got := metricValue(t, srv.URL, "fvpd_sim_sampled_insts_total"); got != float64(m.Sampling.SampledInsts) {
		t.Errorf("fvpd_sim_sampled_insts_total = %g, want %d", got, m.Sampling.SampledInsts)
	}

	// The same region in full detail must be a distinct cache entry, not a
	// hit on the sampled result.
	resp2, out2 := postRuns(t, srv.URL+"/v1/runs?wait=1",
		`{"workload":"omnetpp","predictor":"fvp","warmup_insts":5000,"measure_insts":200000}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d, want 200", resp2.StatusCode)
	}
	if out2.Jobs[0].Cached {
		t.Error("full-detail run was served from the sampled run's cache entry")
	}
	if metricsOf(t, out2.Jobs[0]).Sampling != nil {
		t.Error("full-detail run grew a sampling block")
	}
}
