package client

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fvp"
	"fvp/internal/cluster"
	"fvp/internal/simd"
)

func newClient(t *testing.T, cfg simd.Config) *Client {
	t.Helper()
	svc := simd.New(cfg)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return New(srv.URL)
}

func TestClientRoundTrip(t *testing.T) {
	c := newClient(t, simd.Config{Workers: 2})
	ctx := context.Background()

	if _, err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	ws, err := c.Workloads(ctx)
	if err != nil || len(ws) == 0 {
		t.Fatalf("workloads: %d, %v", len(ws), err)
	}
	ps, err := c.Predictors(ctx)
	if err != nil || len(ps) == 0 {
		t.Fatalf("predictors: %d, %v", len(ps), err)
	}

	spec := fvp.RunSpec{Workload: "omnetpp", Predictor: fvp.PredFVP, WarmupInsts: 1_000, MeasureInsts: 2_000}
	m, err := c.Run(ctx, spec)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if m.IPC <= 0 || m.Insts == 0 {
		t.Errorf("remote run returned empty metrics: %+v", m)
	}

	// Async submit + poll; the identical spec must come back cached.
	jobs, err := c.Submit(ctx, []simd.RunRequest{{RunSpec: spec}}, false)
	if err != nil || len(jobs) != 1 {
		t.Fatalf("submit: %v", err)
	}
	st, err := c.Poll(ctx, jobs[0].ID, 10*time.Millisecond)
	if err != nil || st.State != simd.StateDone || !st.Cached {
		t.Fatalf("poll: state=%s cached=%v err=%v", st.State, st.Cached, err)
	}
	var cached fvp.Metrics
	if err := json.Unmarshal(st.Metrics, &cached); err != nil || cached.IPC != m.IPC {
		t.Error("cached remote metrics must match the first run")
	}
}

func TestClientSurfacesAPIErrors(t *testing.T) {
	c := newClient(t, simd.Config{Workers: 1})
	_, err := c.Run(context.Background(), fvp.RunSpec{Workload: "no-such-kernel"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *APIError, got %v", err)
	}
	if apiErr.StatusCode != 400 || apiErr.Temporary() {
		t.Errorf("unknown workload: %+v", apiErr)
	}
}

func TestClientMetricsText(t *testing.T) {
	c := newClient(t, simd.Config{Workers: 1})
	text, err := c.MetricsText(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# HELP fvpd_jobs_queued", "# TYPE fvpd_jobs_queued gauge", "fvpd_jobs_queued 0"} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics text missing %q:\n%s", want, text)
		}
	}
}

// The warmup knobs must survive the wire both ways: spec fields out,
// fast-forward metrics back.
func TestClientWarmupFieldsRoundTrip(t *testing.T) {
	c := newClient(t, simd.Config{Workers: 2})
	m, err := c.Run(context.Background(), fvp.RunSpec{
		Workload: "hmmer", WarmupInsts: 2_000, MeasureInsts: 5_000,
		WarmupMode: "functional", Regions: 2,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if m.WarmupMode != "functional" {
		t.Errorf("WarmupMode = %q, want functional", m.WarmupMode)
	}
	if m.FFInsts == 0 || m.FFInstsPerSec <= 0 {
		t.Errorf("fast-forward meters missing: ff=%d rate=%v", m.FFInsts, m.FFInstsPerSec)
	}

	var apiErr *APIError
	_, err = c.Run(context.Background(), fvp.RunSpec{Workload: "hmmer", WarmupMode: "fnctional"})
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 400 {
		t.Errorf("bad warmup mode: err = %v, want *APIError with HTTP 400", err)
	}
	if err != nil && !strings.Contains(err.Error(), "functional") {
		t.Errorf("error should carry the did-you-mean hint: %v", err)
	}
}

func TestClientListAndTrace(t *testing.T) {
	c := newClient(t, simd.Config{Workers: 1})
	ctx := context.Background()

	spec := fvp.RunSpec{Workload: "omnetpp", Predictor: fvp.PredFVP, WarmupInsts: 1_000, MeasureInsts: 2_000}
	jobs, err := c.Submit(ctx, []simd.RunRequest{{RunSpec: spec, Trace: true}}, true)
	if err != nil {
		t.Fatal(err)
	}
	st := jobs[0]
	if st.State != simd.StateDone {
		t.Fatalf("traced run ended %s: %s", st.State, st.Error)
	}
	if len(st.Artifacts) != 1 || !strings.HasPrefix(st.Artifacts[0], "trace-") {
		t.Fatalf("artifacts = %v, want one trace-* entry", st.Artifacts)
	}

	listed, err := c.List(ctx, "done")
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != 1 || listed[0].ID != st.ID {
		t.Errorf("List(done) = %+v, want the finished job", listed)
	}
	if empty, err := c.List(ctx, "queued"); err != nil || len(empty) != 0 {
		t.Errorf("List(queued) = %+v, %v; want empty", empty, err)
	}
	var apiErr *APIError
	if _, err := c.List(ctx, "bogus"); !errors.As(err, &apiErr) || apiErr.StatusCode != 400 {
		t.Errorf("List with bad state = %v, want HTTP 400", err)
	}

	blob, err := c.Trace(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "traceEvents") {
		t.Errorf("trace is not chrome://tracing JSON (%d bytes)", len(blob))
	}
	if _, err := c.Trace(ctx, "j-99999999"); !errors.As(err, &apiErr) || apiErr.StatusCode != 404 {
		t.Errorf("trace of unknown job = %v, want HTTP 404", err)
	}
}

// stubRun returns instantly-succeeding metrics for submit-path tests.
func stubRun(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error) {
	return fvp.Metrics{IPC: 1, Cycles: 1, Insts: 1}, nil
}

// newClusterClient wires the client to a cluster.Node handler instead
// of the bare service surface.
func newClusterClient(t *testing.T, cfg simd.Config) *Client {
	t.Helper()
	svc := simd.New(cfg)
	node, err := cluster.New(cluster.Config{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(node.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return New(srv.URL)
}

func TestClientQuotaExceededError(t *testing.T) {
	c := newClient(t, simd.Config{
		Workers: 1, Run: stubRun,
		Tenants: simd.TenantConfig{Quotas: map[string]simd.TenantQuota{
			"flood": {Rate: 0.001, Burst: 1},
		}},
	})
	ctx := context.Background()
	opts := SubmitOptions{Tenant: "flood"}

	spec := func(insts uint64) []simd.RunRequest {
		return []simd.RunRequest{{RunSpec: fvp.RunSpec{
			Workload: "omnetpp", Predictor: "fvp", WarmupInsts: 100, MeasureInsts: insts,
		}}}
	}
	if _, err := c.SubmitWith(ctx, spec(1000), opts); err != nil {
		t.Fatalf("first submit within burst: %v", err)
	}
	_, err := c.SubmitWith(ctx, spec(2000), opts)
	var qe *QuotaExceededError
	if !errors.As(err, &qe) {
		t.Fatalf("over-quota submit: %v, want *QuotaExceededError", err)
	}
	if qe.Tenant != "flood" || qe.RetryAfter <= 0 || !qe.Temporary() {
		t.Fatalf("QuotaExceededError = %+v", qe)
	}
}

func TestClientClusterStatus(t *testing.T) {
	c := newClusterClient(t, simd.Config{Workers: 1, Run: stubRun})
	st, err := c.Cluster(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Self != "" || len(st.Peers) != 1 || !st.Peers[0].Self {
		t.Fatalf("single-node cluster status = %+v", st)
	}
}

func TestClientForwardedError(t *testing.T) {
	// A fake cluster node that answers every by-ID GET with the
	// owner-unreachable 502.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(cluster.ForwardPeerHeader, "node2")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadGateway)
		w.Write([]byte(`{"error":"cluster: job owner \"node2\" unreachable: connection refused"}`))
	}))
	defer srv.Close()

	_, err := New(srv.URL).Get(context.Background(), "node2.j-00000001")
	var fe *ForwardedError
	if !errors.As(err, &fe) {
		t.Fatalf("got %v, want *ForwardedError", err)
	}
	if fe.Peer != "node2" || !fe.Temporary() {
		t.Fatalf("ForwardedError = %+v", fe)
	}
}

func TestClientSubmitWithStampsTenant(t *testing.T) {
	var got atomic.Value
	svc := simd.New(simd.Config{Workers: 1, Run: stubRun})
	inner := svc.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			raw, _ := io.ReadAll(r.Body)
			got.Store(string(raw))
			r.Body = io.NopCloser(strings.NewReader(string(raw)))
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})

	c := New(srv.URL)
	reqs := []simd.RunRequest{
		{RunSpec: fvp.RunSpec{Workload: "omnetpp", Predictor: "fvp", WarmupInsts: 100, MeasureInsts: 1000}},
		{Tenant: "explicit", RunSpec: fvp.RunSpec{Workload: "omnetpp", Predictor: "fvp", WarmupInsts: 100, MeasureInsts: 2000}},
	}
	if _, err := c.SubmitWith(context.Background(), reqs, SubmitOptions{Wait: true, Tenant: "team-a"}); err != nil {
		t.Fatal(err)
	}
	body := got.Load().(string)
	if !strings.Contains(body, `"tenant":"team-a"`) || !strings.Contains(body, `"tenant":"explicit"`) {
		t.Fatalf("tenant stamping wrong: %s", body)
	}
	// The caller's slice must not be mutated.
	if reqs[0].Tenant != "" {
		t.Fatal("SubmitWith mutated the caller's requests")
	}
}
