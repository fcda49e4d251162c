package client

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

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

	spec := fvp.RunSpec{Workload: "omnetpp", Predictor: fvp.PredFVP, WarmupInsts: 1_000, MeasureInsts: 2_000}
	m, err := c.Run(ctx, spec, "")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if m.IPC <= 0 || m.Insts == 0 {
		t.Errorf("remote run returned empty metrics: %+v", m)
	}
	// The identical spec is served from the cache: the same metrics.
	cached, err := c.Run(ctx, spec, "")
	if err != nil || !reflect.DeepEqual(cached, m) {
		t.Errorf("cached remote run = %+v, %v; want the first run's metrics", cached, err)
	}
}

func TestClientSurfacesAPIErrors(t *testing.T) {
	c := newClient(t, simd.Config{Workers: 1})
	_, err := c.Run(context.Background(), fvp.RunSpec{Workload: "no-such-kernel"}, "")
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *APIError, got %v", err)
	}
	if apiErr.StatusCode != 400 || !strings.Contains(apiErr.Message, "no-such-kernel") {
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
	}, "")
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
	_, err = c.Run(context.Background(), fvp.RunSpec{Workload: "hmmer", WarmupMode: "fnctional"}, "")
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 400 {
		t.Errorf("bad warmup mode: err = %v, want *APIError with HTTP 400", err)
	}
	if err != nil && !strings.Contains(err.Error(), "functional") {
		t.Errorf("error should carry the did-you-mean hint: %v", err)
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
	spec := func(insts uint64) fvp.RunSpec {
		return fvp.RunSpec{Workload: "omnetpp", Predictor: "fvp", WarmupInsts: 100, MeasureInsts: insts}
	}
	if _, err := c.Run(ctx, spec(1000), "flood"); err != nil {
		t.Fatalf("first run within burst: %v", err)
	}
	_, err := c.Run(ctx, spec(2000), "flood")
	var qe *QuotaExceededError
	if !errors.As(err, &qe) {
		t.Fatalf("over-quota run: %v, want *QuotaExceededError", err)
	}
	if qe.Tenant != "flood" || qe.RetryAfter <= 0 {
		t.Fatalf("QuotaExceededError = %+v", qe)
	}
	// Another tenant is not held to flood's quota.
	if _, err := c.Run(ctx, spec(2000), ""); err != nil {
		t.Fatalf("anonymous run: %v", err)
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

// TestClientRunStampsTenant: Run sends its tenant with the spec, and an
// empty tenant sends none.
func TestClientRunStampsTenant(t *testing.T) {
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
	spec := fvp.RunSpec{Workload: "omnetpp", Predictor: "fvp", WarmupInsts: 100, MeasureInsts: 1000}
	if _, err := c.Run(context.Background(), spec, "team-a"); err != nil {
		t.Fatal(err)
	}
	if body := got.Load().(string); !strings.Contains(body, `"tenant":"team-a"`) {
		t.Fatalf("tenant not sent: %s", body)
	}
	if _, err := c.Run(context.Background(), spec, ""); err != nil {
		t.Fatal(err)
	}
	if body := got.Load().(string); strings.Contains(body, `"tenant"`) {
		t.Fatalf("anonymous run sent a tenant: %s", body)
	}
}
