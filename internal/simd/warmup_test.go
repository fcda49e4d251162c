package simd

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"fvp"
)

// Warmup mode and region count are part of a run's identity: same
// workload, different fast-forward strategy, different (if close) results.
func TestSpecKeyWarmupFields(t *testing.T) {
	base := fvp.RunSpec{Workload: "omnetpp", WarmupInsts: 1_000, MeasureInsts: 5_000}

	explicit := base
	explicit.WarmupMode = "detailed"
	explicit.Regions = 1
	if specKey(base) != specKey(explicit) {
		t.Error("implicit warmup defaults must hash equal to their explicit form")
	}

	functional := base
	functional.WarmupMode = "functional"
	if specKey(base) == specKey(functional) {
		t.Error("different warmup modes must hash differently")
	}

	regions := base
	regions.Regions = 4
	if specKey(base) == specKey(regions) {
		t.Error("different region counts must hash differently")
	}
}

func TestHTTPWarmupValidation(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})

	resp, err := http.Post(srv.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"workload":"omnetpp","warmup_mode":"fnctional"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("misspelled warmup mode: HTTP %d, want 400", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), `did you mean \"functional\"`) {
		t.Errorf("400 body should suggest the closest mode, got %s", body)
	}

	resp2, err := http.Post(srv.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"workload":"omnetpp","regions":65}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("over-cap regions: HTTP %d, want 400", resp2.StatusCode)
	}
	body2, _ := io.ReadAll(resp2.Body)
	if !strings.Contains(string(body2), "regions") {
		t.Errorf("400 body should name the regions field, got %s", body2)
	}
}

// A functional-warmup region-parallel run must flow through the service
// end to end: spec fields survive the round trip, the result carries the
// warmup labels, and the fleet-level fast-forward counter advances.
func TestHTTPFunctionalRunReportsFFWork(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})

	resp, out := postRuns(t, srv.URL+"/v1/runs?wait=1",
		`{"workload":"hmmer","warmup_insts":2000,"measure_insts":10000,`+
			`"warmup_mode":"functional","regions":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d, want 200", resp.StatusCode)
	}
	if len(out.Jobs) != 1 || out.Jobs[0].State != StateDone {
		t.Fatalf("jobs: %+v", out.Jobs)
	}
	job := out.Jobs[0]
	if job.Spec.WarmupMode != "functional" || job.Spec.Regions != 2 {
		t.Errorf("normalized spec lost warmup fields: %+v", job.Spec)
	}
	m := job.Metrics
	if m == nil {
		t.Fatal("done job has no metrics")
	}
	if m.WarmupMode != "functional" {
		t.Errorf("metrics WarmupMode = %q, want functional", m.WarmupMode)
	}
	if m.FFInsts == 0 {
		t.Error("functional region run reported no fast-forwarded instructions")
	}

	if got := metricValue(t, srv.URL, "fvpd_sim_ff_insts_total"); got != float64(m.FFInsts) {
		t.Errorf("fvpd_sim_ff_insts_total = %g, want %d", got, m.FFInsts)
	}
}
