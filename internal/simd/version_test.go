package simd

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"fvp"
)

// TestLegacyAliasesDeprecated checks the pre-versioning read-only paths are
// no longer served: each answers 404 with no Deprecation header, while its
// /v1 successor still answers 200.
func TestLegacyAliasesDeprecated(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	for _, tc := range []struct{ legacy, successor string }{
		{"/workloads", "/v1/workloads"},
		{"/predictors", "/v1/predictors"},
		{"/metrics", "/v1/metrics"},
	} {
		legacyResp, err := http.Get(srv.URL + tc.legacy)
		if err != nil {
			t.Fatal(err)
		}
		legacyResp.Body.Close()
		if legacyResp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: HTTP %d, want 404", tc.legacy, legacyResp.StatusCode)
		}
		if got := legacyResp.Header.Get("Deprecation"); got != "" {
			t.Errorf("GET %s: Deprecation header = %q, want none", tc.legacy, got)
		}

		v1Resp, err := http.Get(srv.URL + tc.successor)
		if err != nil {
			t.Fatal(err)
		}
		v1Resp.Body.Close()
		if v1Resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: HTTP %d, want 200", tc.successor, v1Resp.StatusCode)
		}
	}
}

// TestLegacyRunsAlias checks the pre-versioning /runs path is no longer
// served: a submit through it answers 404 and runs nothing, and a job
// submitted through /v1/runs is fetchable only under /v1/runs/{id}.
func TestLegacyRunsAlias(t *testing.T) {
	svc, srv := newTestServer(t, Config{Workers: 1})
	const body = `{"workload":"omnetpp","warmup_insts":1000,"measure_insts":2000}`
	resp, _ := postRuns(t, srv.URL+"/runs?wait=1", body)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("legacy submit: HTTP %d, want 404", resp.StatusCode)
	}
	if n := svc.Snapshot().JobsDone; n != 0 {
		t.Fatalf("legacy submit ran %d job(s), want none", n)
	}

	resp, out := postRuns(t, srv.URL+"/v1/runs?wait=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("v1 submit: HTTP %d", resp.StatusCode)
	}
	if len(out.Jobs) != 1 || out.Jobs[0].State != StateDone {
		t.Fatalf("v1 submit outcome: %+v", out.Jobs)
	}
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/runs/", http.StatusNotFound},
		{"/v1/runs/", http.StatusOK},
	} {
		r, err := http.Get(srv.URL + tc.path + out.Jobs[0].ID)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != tc.want {
			t.Errorf("GET %s%s: HTTP %d, want %d", tc.path, out.Jobs[0].ID, r.StatusCode, tc.want)
		}
	}
}

// TestMetricsExposition checks the canonical /v1/metrics output carries
// HELP/TYPE metadata for every metric family, and that the request
// histogram counted the submit.
func TestMetricsExposition(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	resp, out := postRuns(t, srv.URL+"/v1/runs?wait=1",
		`{"workload":"omnetpp","warmup_insts":1000,"measure_insts":2000}`)
	resp.Body.Close()
	if len(out.Jobs) != 1 || out.Jobs[0].State != StateDone {
		t.Fatalf("seed run failed: %+v", out.Jobs)
	}

	r, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	text := string(body)
	for _, family := range []string{
		"fvpd_jobs_queued", "fvpd_jobs_running", "fvpd_jobs_done_total",
		"fvpd_cache_hits_total", "fvpd_sim_cycles_total",
		"fvpd_request_seconds",
	} {
		if !strings.Contains(text, "# HELP "+family+" ") {
			t.Errorf("exposition missing HELP for %s", family)
		}
		if !strings.Contains(text, "# TYPE "+family+" ") {
			t.Errorf("exposition missing TYPE for %s", family)
		}
	}
	if !strings.Contains(text, `fvpd_request_seconds_count{path="POST /v1/runs",outcome="ok"} 1`+"\n") {
		t.Errorf("exposition missing the submit's request count:\n%s", text)
	}
}

// TestProgressReporting checks a long-running job exposes progress through
// GET /v1/runs/{id}, that followers see their leader's progress, and that
// progress disappears once terminal.
func TestProgressReporting(t *testing.T) {
	svc, srv := newTestServer(t, Config{Workers: 1})

	// Long enough that we can observe it mid-flight; the measured region
	// dominates so the sampler (attached post-warmup) has data to report.
	spec := fvp.RunSpec{Workload: "omnetpp", Predictor: fvp.PredFVP, WarmupInsts: 1_000, MeasureInsts: 60_000_000}
	st, err := svc.Submit(RunRequest{RunSpec: spec})
	if err != nil {
		t.Fatal(err)
	}
	follower, err := svc.Submit(RunRequest{RunSpec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if !follower.Cached {
		t.Fatal("identical concurrent submit should dedup onto the leader")
	}

	getStatus := func(id string) JobStatus {
		r, err := http.Get(srv.URL + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var js JobStatus
		if err := json.NewDecoder(r.Body).Decode(&js); err != nil {
			t.Fatal(err)
		}
		return js
	}

	waitFor(t, func() bool {
		js := getStatus(st.ID)
		return js.State == StateRunning && js.Progress != nil && js.Progress.RetiredInsts > 0
	})
	js := getStatus(st.ID)
	if js.Progress.TargetInsts != spec.MeasureInsts {
		t.Errorf("progress target = %d, want %d", js.Progress.TargetInsts, spec.MeasureInsts)
	}
	if js.Progress.Ratio <= 0 || js.Progress.Ratio > 1 {
		t.Errorf("progress ratio = %g, want (0,1]", js.Progress.Ratio)
	}
	if fj := getStatus(follower.ID); fj.State == StateRunning && fj.Progress == nil {
		t.Error("running follower should report its leader's progress")
	}

	if !svc.Cancel(st.ID) || !svc.Cancel(follower.ID) {
		t.Fatal("cancel failed")
	}
	waitFor(t, func() bool { return svc.Snapshot().JobsRunning == 0 })
	if js := getStatus(st.ID); js.Progress != nil {
		t.Error("terminal job must not report progress")
	}
}

// TestSubmitRejectsOverBudgetSpec checks the typed budget-cap validation
// surfaces as HTTP 400.
func TestSubmitRejectsOverBudgetSpec(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	resp, _ := postRuns(t, srv.URL+"/v1/runs",
		`{"workload":"omnetpp","measure_insts":2000000000}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-budget submit: HTTP %d, want 400", resp.StatusCode)
	}
}
