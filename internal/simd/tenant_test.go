package simd

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"fvp"
)

func TestParseQuotaSpec(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want TenantQuota
		ok   bool
	}{
		{"10", TenantQuota{Rate: 10}, true},
		{"2.5:8", TenantQuota{Rate: 2.5, Burst: 8}, true},
		{"1:4:3", TenantQuota{Rate: 1, Burst: 4, Weight: 3}, true},
		{"", TenantQuota{}, false},
		{"-1", TenantQuota{}, false},
		{"1:2:3:4", TenantQuota{}, false},
		{"x", TenantQuota{}, false},
	} {
		got, err := ParseQuotaSpec(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("ParseQuotaSpec(%q) err=%v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseQuotaSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestParseTenantQuotas(t *testing.T) {
	got, err := ParseTenantQuotas("alice=10:20, bob=1:2:4")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]TenantQuota{
		"alice": {Rate: 10, Burst: 20},
		"bob":   {Rate: 1, Burst: 2, Weight: 4},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d entries, want %d", len(got), len(want))
	}
	for k, q := range want {
		if got[k] != q {
			t.Errorf("tenant %s = %+v, want %+v", k, got[k], q)
		}
	}
	for _, bad := range []string{"", "alice", "=10", "alice=zap"} {
		if _, err := ParseTenantQuotas(bad); err == nil {
			t.Errorf("ParseTenantQuotas(%q) accepted", bad)
		}
	}
}

// TestWeightedRoundRobin drives the tenant queue directly: a heavy
// tenant's backlog must not starve a light tenant, and weights set the
// interleave ratio.
func TestWeightedRoundRobin(t *testing.T) {
	mk := func(tenant, id string) *job { return &job{id: id, tenant: tenant} }
	tq := newTenants(TenantConfig{Quotas: map[string]TenantQuota{
		"heavy": {Rate: 100, Burst: 100, Weight: 2},
		"light": {Rate: 100, Burst: 100, Weight: 1},
	}})
	for i := 0; i < 4; i++ {
		tq.enqueue(mk("heavy", fmt.Sprintf("h%d", i)))
	}
	tq.enqueue(mk("light", "l0"))
	tq.enqueue(mk("light", "l1"))

	var order []string
	for j := tq.dequeue(); j != nil; j = tq.dequeue() {
		order = append(order, j.id)
	}
	want := []string{"h0", "h1", "l0", "h2", "h3", "l1"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Fatalf("dequeue order %v, want %v", order, want)
	}
	if tq.queued != 0 {
		t.Fatalf("queued = %d after drain", tq.queued)
	}
}

// TestSingleTenantIsFIFO: with one (anonymous) tenant the queue is the
// original FIFO — order in is order out.
func TestSingleTenantIsFIFO(t *testing.T) {
	tq := newTenants(TenantConfig{})
	for i := 0; i < 5; i++ {
		tq.enqueue(&job{id: fmt.Sprintf("j%d", i)})
	}
	for i := 0; i < 5; i++ {
		if j := tq.dequeue(); j.id != fmt.Sprintf("j%d", i) {
			t.Fatalf("position %d: got %s", i, j.id)
		}
	}
}

// slowRunFunc blocks each simulation until release is closed, recording
// execution order.
func slowRunFunc(order *[]string, mu *sync.Mutex, release chan struct{}) RunFunc {
	return func(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error) {
		mu.Lock()
		*order = append(*order, fmt.Sprintf("%s/%d", spec.Workload, spec.MeasureInsts))
		mu.Unlock()
		select {
		case <-release:
		case <-ctx.Done():
			return fvp.Metrics{}, ctx.Err()
		}
		return fvp.Metrics{IPC: 1, Cycles: 1, Insts: 1}, nil
	}
}

// TestTenantQuota429 is the admission acceptance test: a flooding
// tenant's submits beyond its burst are refused with 429 + Retry-After +
// X-Fvpd-Tenant while an unquoted tenant keeps being admitted.
func TestTenantQuota429(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var mu sync.Mutex
	var order []string
	_, srv := newTestServer(t, Config{
		Workers: 1, QueueSize: 16,
		Run: slowRunFunc(&order, &mu, release),
		Tenants: TenantConfig{Quotas: map[string]TenantQuota{
			"flood": {Rate: 0.001, Burst: 2},
		}},
	})

	submit := func(tenant string, insts int) *http.Response {
		body := fmt.Sprintf(`{"workload":"omnetpp","predictor":"fvp","warmup_insts":100,"measure_insts":%d,"tenant":%q}`,
			insts, tenant)
		resp, _ := postRuns(t, srv.URL+"/v1/runs", body)
		return resp
	}

	for i := 0; i < 2; i++ {
		if resp := submit("flood", 1000+i); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("flood submit %d within burst: HTTP %d", i, resp.StatusCode)
		}
	}
	resp := submit("flood", 1002)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("flood submit beyond burst: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := resp.Header.Get("X-Fvpd-Tenant"); got != "flood" {
		t.Errorf("X-Fvpd-Tenant = %q, want flood", got)
	}
	if resp := submit("light", 2000); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("light tenant rejected alongside flooder: HTTP %d", resp.StatusCode)
	}

	// The rejection and both tenants' inflight show up in the exposition.
	if v := metricValue(t, srv.URL, `fvpd_tenant_rejected_total{tenant="flood"}`); v != 1 {
		t.Errorf("fvpd_tenant_rejected_total{flood} = %g, want 1", v)
	}
	if v := metricValue(t, srv.URL, `fvpd_tenant_inflight{tenant="light"}`); v != 1 {
		t.Errorf("fvpd_tenant_inflight{light} = %g, want 1", v)
	}
}

// TestTenantFairnessUnderBacklog floods the queue from one tenant and
// checks the light tenant's lone job is dispatched ahead of the
// flooder's backlog tail.
func TestTenantFairnessUnderBacklog(t *testing.T) {
	release := make(chan struct{})
	var mu sync.Mutex
	var order []string
	svc, srv := newTestServer(t, Config{
		Workers: 1, QueueSize: 16,
		Run: slowRunFunc(&order, &mu, release),
		Tenants: TenantConfig{Quotas: map[string]TenantQuota{
			"flood": {Rate: 1000, Burst: 16},
		}},
	})

	submit := func(tenant string, insts int) {
		body := fmt.Sprintf(`{"workload":"omnetpp","predictor":"fvp","warmup_insts":100,"measure_insts":%d,"tenant":%q}`,
			insts, tenant)
		if resp, _ := postRuns(t, srv.URL+"/v1/runs", body); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d", resp.StatusCode)
		}
	}
	// f0 occupies the worker; f1..f4 queue up; then the light job arrives.
	for i := 0; i < 5; i++ {
		submit("flood", 1000+i)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == 1
	})
	submit("light", 9000)

	close(release)
	waitFor(t, func() bool { return svc.Snapshot().JobsDone == 6 })

	mu.Lock()
	defer mu.Unlock()
	pos := map[string]int{}
	for i, id := range order {
		pos[id] = i
	}
	// WRR: after f0 (running) and f1 (flood's turn), the light tenant's
	// job must beat the remaining flood backlog.
	if pos["omnetpp/9000"] > pos["omnetpp/1002"] {
		t.Fatalf("light job starved: order %v", order)
	}
}

// TestSamplingWireCompat is the API-redesign golden test: the flat
// sample_* fields still work (with a Deprecation signal), the nested
// sampling{} block is the undecorated successor, both at once is a 400,
// and tenant-less single-node responses carry no tenant/node keys.
func TestSamplingWireCompat(t *testing.T) {
	stub := func(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error) {
		return fvp.Metrics{IPC: 1, Cycles: 1, Insts: 1}, nil
	}
	_, srv := newTestServer(t, Config{Workers: 1, Run: stub})

	legacy := `{"workload":"omnetpp","predictor":"fvp","warmup_insts":100,"measure_insts":100000,"sample_units":4,"sample_seed":7}`
	resp, out := postRuns(t, srv.URL+"/v1/runs?wait=1", legacy)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("legacy flat submit: HTTP %d", resp.StatusCode)
	}
	if resp.Header.Get("Deprecation") != "true" || !strings.Contains(resp.Header.Get("Link"), "sampling{}") {
		t.Errorf("legacy flat submit missing Deprecation/Link headers: %v", resp.Header)
	}
	if out.Jobs[0].Spec.SampleUnits != 4 || out.Jobs[0].Spec.SampleSeed != 7 {
		t.Errorf("legacy sampling fields lost: %+v", out.Jobs[0].Spec)
	}

	nested := `{"workload":"omnetpp","predictor":"fvp","warmup_insts":100,"measure_insts":100000,"sampling":{"units":4,"seed":7}}`
	resp, out = postRuns(t, srv.URL+"/v1/runs?wait=1", nested)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("nested sampling submit: HTTP %d", resp.StatusCode)
	}
	if resp.Header.Get("Deprecation") != "" {
		t.Error("nested sampling submit wrongly marked deprecated")
	}
	if out.Jobs[0].Spec.SampleUnits != 4 || out.Jobs[0].Spec.SampleSeed != 7 {
		t.Errorf("nested sampling not folded into spec: %+v", out.Jobs[0].Spec)
	}
	// Same plan, either spelling: one simulation, one cache entry.
	if !out.Jobs[0].Cached {
		t.Error("nested respelling of the flat plan missed the cache")
	}

	both := `{"workload":"omnetpp","predictor":"fvp","measure_insts":100000,"sample_units":4,"sampling":{"units":4}}`
	if resp, _ := postRuns(t, srv.URL+"/v1/runs", both); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("conflicting sampling forms: HTTP %d, want 400", resp.StatusCode)
	}

	// Tenant-less, node-less deployments keep the pre-tenancy wire format:
	// no tenant, node, or tenants keys anywhere.
	raw, err := http.Get(srv.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Body.Close()
	var listing struct {
		Jobs []map[string]json.RawMessage `json:"jobs"`
	}
	if err := json.NewDecoder(raw.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	for _, j := range listing.Jobs {
		for _, k := range []string{"tenant", "node"} {
			if _, present := j[k]; present {
				t.Errorf("tenant-less job leaks %q key: %v", k, j)
			}
		}
	}
}

// TestJobIDNodePrefix: cluster job IDs carry the node name and split
// back out; bare IDs split to the empty node.
func TestJobIDNodePrefix(t *testing.T) {
	stub := func(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error) {
		return fvp.Metrics{IPC: 1}, nil
	}
	svc := New(Config{Workers: 1, NodeID: "n1.rack2", Run: stub})
	defer svc.Close()
	st, err := svc.Submit(RunRequest{RunSpec: fvp.RunSpec{
		Workload: "omnetpp", Predictor: "fvp", WarmupInsts: 100, MeasureInsts: 1000,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(st.ID, "n1.rack2.j-") {
		t.Fatalf("job ID %q lacks node prefix", st.ID)
	}
	if st.Node != "n1.rack2" {
		t.Fatalf("status Node = %q", st.Node)
	}
	node, local := SplitJobID(st.ID)
	if node != "n1.rack2" || !strings.HasPrefix(local, "j-") {
		t.Fatalf("SplitJobID(%q) = %q, %q", st.ID, node, local)
	}
	if node, local := SplitJobID("j-00000001"); node != "" || local != "j-00000001" {
		t.Fatalf("bare SplitJobID = %q, %q", node, local)
	}
	if _, ok := svc.Get(st.ID); !ok {
		t.Fatal("job not retrievable by prefixed ID")
	}
}

// TestQuotaRefillAdmitsAgain: after Retry-After elapses (simulated via
// the clock hook) the tenant is admitted again.
func TestQuotaRefillAdmitsAgain(t *testing.T) {
	now := time.Unix(1000, 0)
	var clockMu sync.Mutex
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	stub := func(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error) {
		return fvp.Metrics{IPC: 1}, nil
	}
	svc := New(Config{
		Workers: 1, Run: stub, clock: clock,
		Tenants: TenantConfig{Quotas: map[string]TenantQuota{"a": {Rate: 1, Burst: 1}}},
	})
	defer svc.Close()

	req := func(insts uint64) RunRequest {
		return RunRequest{Tenant: "a", RunSpec: fvp.RunSpec{
			Workload: "omnetpp", Predictor: "fvp", WarmupInsts: 100, MeasureInsts: insts,
		}}
	}
	if _, err := svc.Submit(req(1000)); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	_, err := svc.Submit(req(2000))
	qe, ok := err.(*QuotaError)
	if !ok {
		t.Fatalf("second submit: %v, want *QuotaError", err)
	}
	if qe.Tenant != "a" || qe.RetryAfter <= 0 {
		t.Fatalf("QuotaError = %+v", qe)
	}

	clockMu.Lock()
	now = now.Add(qe.RetryAfter + time.Second)
	clockMu.Unlock()
	waitFor(t, func() bool { return svc.Snapshot().JobsDone >= 1 })
	if _, err := svc.Submit(req(2000)); err != nil {
		t.Fatalf("submit after refill: %v", err)
	}
}
