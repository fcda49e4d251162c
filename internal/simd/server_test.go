package simd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"fvp"
)

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return svc, srv
}

func postRuns(t *testing.T, url, body string) (*http.Response, SubmitResponse) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out SubmitResponse
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

// metricValue digs one counter out of the /v1/metrics text exposition.
func metricValue(t *testing.T, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		var v float64
		if _, err := fmt.Sscanf(line, name+" %g", &v); err == nil && strings.HasPrefix(line, name+" ") {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, body)
	return 0
}

// TestHTTPBatchSubmitReportsCacheHits is the acceptance path: a batch of
// N identical specs simulates once and /metrics reports N−1 cache hits.
func TestHTTPBatchSubmitReportsCacheHits(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})

	const n = 4
	spec := `{"workload":"omnetpp","predictor":"fvp","warmup_insts":1000,"measure_insts":2000}`
	body := `{"runs":[` + strings.Repeat(spec+",", n-1) + spec + `]}`
	resp, out := postRuns(t, srv.URL+"/v1/runs?wait=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait-mode batch: HTTP %d", resp.StatusCode)
	}
	if len(out.Jobs) != n {
		t.Fatalf("got %d jobs, want %d", len(out.Jobs), n)
	}
	cached := 0
	for _, j := range out.Jobs {
		if j.State != StateDone || metricsOf(t, j).IPC <= 0 {
			t.Fatalf("job %s: state=%s metrics=%s", j.ID, j.State, j.Metrics)
		}
		if j.Cached {
			cached++
		}
	}
	if cached != n-1 {
		t.Errorf("%d jobs marked cached, want %d", cached, n-1)
	}
	if hits := metricValue(t, srv.URL, "fvpd_cache_hits_total"); hits != n-1 {
		t.Errorf("fvpd_cache_hits_total = %g, want %d", hits, n-1)
	}
	if misses := metricValue(t, srv.URL, "fvpd_cache_misses_total"); misses != 1 {
		t.Errorf("fvpd_cache_misses_total = %g, want 1", misses)
	}
	if cps := metricValue(t, srv.URL, "fvpd_sim_cycles_per_second"); cps <= 0 {
		t.Errorf("fvpd_sim_cycles_per_second = %g, want > 0", cps)
	}
}

func TestHTTPAsyncSubmitAndPoll(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})

	resp, out := postRuns(t, srv.URL+"/v1/runs", `{"workload":"mcf","warmup_insts":1000,"measure_insts":2000}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: HTTP %d, want 202", resp.StatusCode)
	}
	id := out.Jobs[0].ID
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		if st.State == StateDone {
			if metricsOf(t, st).Insts == 0 {
				t.Fatalf("done job missing metrics: %+v", st)
			}
			break
		}
		if st.State.terminal() {
			t.Fatalf("job ended %s: %s", st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish in 10s")
		}
		time.Sleep(20 * time.Millisecond)
	}

	if r, err := http.Get(srv.URL + "/v1/runs/j-99999999"); err != nil || r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status=%v err=%v, want 404", r.StatusCode, err)
	}
}

// TestHTTPBackpressure503 fills the queue and expects 503 + Retry-After.
func TestHTTPBackpressure503(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	_, srv := newTestServer(t, Config{
		Workers:   1,
		QueueSize: 1,
		Run: func(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error) {
			select {
			case <-release:
				return fvp.Metrics{IPC: 1}, nil
			case <-ctx.Done():
				return fvp.Metrics{}, ctx.Err()
			}
		},
	})

	submit := func(warm int) *http.Response {
		resp, _ := postRuns(t, srv.URL+"/v1/runs",
			fmt.Sprintf(`{"workload":"omnetpp","warmup_insts":%d}`, warm))
		return resp
	}
	if resp := submit(11); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", resp.StatusCode)
	}
	// Wait until the worker picked it up so the queue slot is free.
	waitFor(t, func() bool {
		return metricValue(t, srv.URL, "fvpd_jobs_running") == 1
	})
	if resp := submit(22); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit (fills queue): HTTP %d", resp.StatusCode)
	}
	resp := submit(33)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submit: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 must carry a Retry-After hint")
	}
}

// TestHTTPClientDisconnectCancelsJob submits an effectively endless real
// simulation in wait mode, drops the connection, and requires the
// service to stop burning cycles within one stats-poll interval.
func TestHTTPClientDisconnectCancelsJob(t *testing.T) {
	svc, srv := newTestServer(t, Config{Workers: 1})

	ctx, cancel := context.WithCancel(context.Background())
	body := `{"workload":"omnetpp","predictor":"fvp","measure_insts":1000000000}`
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
		srv.URL+"/v1/runs?wait=1", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")

	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	waitFor(t, func() bool { return svc.Snapshot().JobsRunning == 1 })

	cancel() // client disconnects mid-run
	if err := <-errc; err == nil {
		t.Fatal("request should fail once its context is canceled")
	}
	waitFor(t, func() bool {
		s := svc.Snapshot()
		return s.JobsRunning == 0 && s.JobsCanceled >= 1
	})
	if v := metricValue(t, srv.URL, "fvpd_jobs_canceled_total"); v < 1 {
		t.Errorf("fvpd_jobs_canceled_total = %g, want >= 1", v)
	}
}

func TestHTTPValidationSuggestsNames(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})

	resp, err := http.Post(srv.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"workload":"omnetp"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("misspelled workload: HTTP %d, want 400", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), `did you mean \"omnetpp\"`) {
		t.Errorf("400 body should suggest the closest workload, got %s", body)
	}

	resp2, err := http.Post(srv.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"workload":"omnetpp","predictor":"fpv"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("misspelled predictor: HTTP %d, want 400", resp2.StatusCode)
	}
	body2, _ := io.ReadAll(resp2.Body)
	if !strings.Contains(string(body2), `did you mean \"fvp\"`) {
		t.Errorf("400 body should suggest the closest predictor, got %s", body2)
	}
}

func TestHTTPCatalogAndHealth(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})

	var ws []fvp.WorkloadInfo
	resp, err := http.Get(srv.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&ws)
	resp.Body.Close()
	if len(ws) != len(fvp.Workloads()) {
		t.Errorf("workloads endpoint lists %d entries, want %d", len(ws), len(fvp.Workloads()))
	}

	var ps []PredictorInfo
	resp, err = http.Get(srv.URL + "/v1/predictors")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&ps)
	resp.Body.Close()
	if len(ps) != len(fvp.Predictors()) {
		t.Errorf("predictors endpoint lists %d entries, want %d", len(ps), len(fvp.Predictors()))
	}
	foundFVP := false
	for _, p := range ps {
		if p.Name == "fvp" && p.StorageBytes > 0 {
			foundFVP = true
		}
	}
	if !foundFVP {
		t.Error("predictors endpoint should list fvp with a nonzero storage budget")
	}

	var h Health
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if h.Status != "ok" || h.Workers != 1 {
		t.Errorf("healthz = %+v", h)
	}
}

// TestSplitJobs checks the one writer and the one splitter of a submit
// answer on statuses whose strings hold commas, brackets, quotes,
// backslashes, '<', 'é' and newlines: WriteJobs must write the bytes
// json.Encoder writes for a SubmitResponse of them (the wire goldens
// rely on that), SplitJobs must cut that body into the elements
// json.Unmarshal finds, and it must refuse every truncation of it.
func TestSplitJobs(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	alphabet := []string{",", "[", "]", "{", "}", `"`, `\`, `\"`, "a", "é", "<", "\n"}
	for i := 0; i < 500; i++ {
		jobs := make([]JobStatus, 1+rng.Intn(4))
		elems := make([]json.RawMessage, len(jobs))
		for j := range jobs {
			var tenant, msg strings.Builder
			for k := rng.Intn(8); k > 0; k-- {
				tenant.WriteString(alphabet[rng.Intn(len(alphabet))])
				msg.WriteString(alphabet[rng.Intn(len(alphabet))])
			}
			jobs[j] = JobStatus{ID: fmt.Sprintf("b.j-%08d", j), State: StateDone, Tenant: tenant.String(), Error: msg.String()}
			if rng.Intn(2) == 0 {
				jobs[j].Metrics = json.RawMessage(`{"ipc":1.5,"loads_by_level":[1,2,3,4]}`)
			}
			var err error
			if elems[j], err = json.Marshal(jobs[j]); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(SubmitResponse{Jobs: jobs}); err != nil {
			t.Fatal(err)
		}
		body := buf.Bytes()
		wait := i%2 == 0
		rec := httptest.NewRecorder()
		WriteJobs(rec, wait, elems)
		if !bytes.Equal(rec.Body.Bytes(), body) {
			t.Fatalf("WriteJobs wrote %q, json.Encoder %q", rec.Body.Bytes(), body)
		}
		wantCode := http.StatusAccepted
		if wait {
			wantCode = http.StatusOK
		}
		if rec.Code != wantCode {
			t.Fatalf("WriteJobs(wait %v) answered HTTP %d, want %d", wait, rec.Code, wantCode)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("WriteJobs Content-Type %q", ct)
		}
		var want struct {
			Jobs []json.RawMessage `json:"jobs"`
		}
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		if got := SplitJobs(body); !reflect.DeepEqual(got, want.Jobs) {
			t.Fatalf("%s split into %q, want %q", body, got, want.Jobs)
		}
		for n := 1; n < len(body)-1; n++ {
			if got := SplitJobs(body[:n]); got != nil {
				t.Fatalf("truncation %q split into %q, want nil", body[:n], got)
			}
		}
	}
	for _, body := range []string{``, `{}`, `{"jobs":null}`, `{"jobs":[1]}`, `{"jobs":[{}],"more":1}`, `{"jobs":[{"a":"}"}]}x`} {
		if got := SplitJobs([]byte(body)); got != nil {
			t.Errorf("%q split into %q, want nil", body, got)
		}
	}
}

// TestHTTPListAndTrace covers the read routes over HTTP: a run submitted
// with "trace":true lists its artifact, GET /v1/runs filters by state
// (400 for an unknown one), GET /v1/runs/{id}/trace serves the Perfetto
// JSON (404 for an unknown job), and DELETE answers 409 for a finished
// job and 404 for an unknown one.
func TestHTTPListAndTrace(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	resp, out := postRuns(t, srv.URL+"/v1/runs?wait=1",
		`{"workload":"omnetpp","predictor":"fvp","warmup_insts":1000,"measure_insts":2000,"trace":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced submit: HTTP %d", resp.StatusCode)
	}
	st := out.Jobs[0]
	if st.State != StateDone {
		t.Fatalf("traced run ended %s: %s", st.State, st.Error)
	}
	if len(st.Artifacts) != 1 || !strings.HasPrefix(st.Artifacts[0], "trace-") {
		t.Fatalf("artifacts = %v, want one trace-* entry", st.Artifacts)
	}

	do := func(method, path string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		b, err := io.ReadAll(r.Body)
		if err != nil {
			t.Fatal(err)
		}
		return r.StatusCode, b
	}
	for state, want := range map[string]int{"": 1, "done": 1, "queued": 0} {
		code, b := do("GET", "/v1/runs?state="+state)
		var list JobList
		if err := json.Unmarshal(b, &list); err != nil || code != http.StatusOK || len(list.Jobs) != want ||
			(want == 1 && list.Jobs[0].ID != st.ID) {
			t.Errorf("list state=%q: HTTP %d %s, want %d job(s)", state, code, b, want)
		}
	}
	if code, b := do("GET", "/v1/runs?state=bogus"); code != http.StatusBadRequest {
		t.Errorf("list with a bad state: HTTP %d %s, want 400", code, b)
	}
	if code, b := do("GET", "/v1/runs/"+st.ID+"/trace"); code != http.StatusOK || !strings.Contains(string(b), "traceEvents") {
		t.Errorf("trace: HTTP %d, %d bytes, want chrome://tracing JSON", code, len(b))
	}
	if code, _ := do("GET", "/v1/runs/j-99999999/trace"); code != http.StatusNotFound {
		t.Errorf("trace of an unknown job: HTTP %d, want 404", code)
	}
	if code, _ := do("DELETE", "/v1/runs/"+st.ID); code != http.StatusConflict {
		t.Errorf("cancel of a done job: HTTP %d, want 409", code)
	}
	if code, _ := do("DELETE", "/v1/runs/j-99999999"); code != http.StatusNotFound {
		t.Errorf("cancel of an unknown job: HTTP %d, want 404", code)
	}
}
