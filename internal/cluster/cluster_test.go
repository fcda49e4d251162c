package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fvp"
	"fvp/internal/simd"
	"fvp/internal/store"
	"fvp/internal/store/disk"
)

func TestRingDeterministicAndCovering(t *testing.T) {
	members := []string{"a", "b", "c"}
	r1 := newRing(members)
	r2 := newRing([]string{"c", "a", "b"}) // order must not matter
	owned := map[string]int{}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("spec-%d", i)
		o := r1.owner(key)
		if o2 := r2.owner(key); o2 != o {
			t.Fatalf("rings disagree on %s: %s vs %s", key, o, o2)
		}
		owned[o]++
	}
	for _, m := range members {
		if owned[m] == 0 {
			t.Fatalf("node %s owns nothing: %v", m, owned)
		}
	}
}

// swapHandler lets us mint httptest URLs before the Nodes that serve
// them exist (the peer map needs every URL up front).
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// testCluster is N fvpd nodes wired into one ring, each with a stub
// RunFunc that counts executions per node.
type testCluster struct {
	ids   []string
	svcs  map[string]*simd.Service
	nodes map[string]*Node
	srvs  map[string]*httptest.Server
	runs  map[string]*atomic.Int64 // executions per node
	gate  chan struct{}            // non-nil: simulations block on it
}

func newTestCluster(t *testing.T, n int, mut func(*Config)) *testCluster {
	t.Helper()
	return newTestClusterWith(t, n, nil, mut)
}

// newTestClusterWith is newTestCluster with a hook on every node's
// service config as well.
func newTestClusterWith(t *testing.T, n int, svcMut func(*simd.Config), mut func(*Config)) *testCluster {
	t.Helper()
	tc := &testCluster{
		svcs:  make(map[string]*simd.Service),
		nodes: make(map[string]*Node),
		srvs:  make(map[string]*httptest.Server),
		runs:  make(map[string]*atomic.Int64),
	}
	peers := make(map[string]string)
	proxies := make(map[string]*swapHandler)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("node%d", i)
		tc.ids = append(tc.ids, id)
		proxies[id] = &swapHandler{}
		srv := httptest.NewServer(proxies[id])
		tc.srvs[id] = srv
		peers[id] = srv.URL
		tc.runs[id] = &atomic.Int64{}
	}
	for _, id := range tc.ids {
		id := id
		scfg := simd.Config{
			Workers: 2, QueueSize: 16, NodeID: id,
			Run: func(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error) {
				tc.runs[id].Add(1)
				if tc.gate != nil {
					select {
					case <-tc.gate:
					case <-ctx.Done():
						return fvp.Metrics{}, ctx.Err()
					}
				}
				return fvp.Metrics{IPC: 1, Cycles: 100, Insts: 100}, nil
			},
		}
		if svcMut != nil {
			svcMut(&scfg)
		}
		svc := simd.New(scfg)
		cfg := Config{
			Service: svc, Self: id, Peers: peers,
			retryBackoff: time.Millisecond, forwardTimeout: 2 * time.Second,
		}
		if mut != nil {
			mut(&cfg)
		}
		node, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tc.svcs[id] = svc
		tc.nodes[id] = node
		proxies[id].set(node.Handler())
	}
	t.Cleanup(func() {
		for _, id := range tc.ids {
			tc.srvs[id].Close()
			tc.svcs[id].Close()
		}
	})
	return tc
}

func (tc *testCluster) totalRuns() int64 {
	var n int64
	for _, c := range tc.runs {
		n += c.Load()
	}
	return n
}

// specBody returns a distinct valid run spec; insts varies the content
// address.
func specBody(insts int, extra string) string {
	return fmt.Sprintf(`{"workload":"omnetpp","predictor":"fvp","warmup_insts":100,"measure_insts":%d%s}`,
		insts, extra)
}

func specFor(insts int) fvp.RunSpec {
	return fvp.RunSpec{Workload: "omnetpp", Predictor: "fvp", WarmupInsts: 100, MeasureInsts: uint64(insts)}
}

// ownerAndOther picks a spec's owner plus some non-owner node.
func (tc *testCluster) ownerAndOther(t *testing.T, insts int) (owner, other string) {
	t.Helper()
	owner = tc.nodes[tc.ids[0]].Owner(simd.SpecKey(specFor(insts)))
	for _, id := range tc.ids {
		if id != owner {
			return owner, id
		}
	}
	t.Fatal("no non-owner node")
	return
}

func postBody(t *testing.T, url, body string) (*http.Response, simd.SubmitResponse) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out simd.SubmitResponse
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

// TestSubmitRoutesToOwner: a submit through any non-owner lands on the
// spec's ring owner, and the returned job ID carries the owner's name.
func TestSubmitRoutesToOwner(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	owner, other := tc.ownerAndOther(t, 5000)

	resp, out := postBody(t, tc.srvs[other].URL+"/v1/runs?wait=1", specBody(5000, ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit via %s: HTTP %d", other, resp.StatusCode)
	}
	st := out.Jobs[0]
	if st.State != simd.StateDone || st.Metrics == nil {
		t.Fatalf("job ended %s: %+v", st.State, st)
	}
	if st.Node != owner {
		t.Fatalf("job ran on %s, want owner %s", st.Node, owner)
	}
	if !strings.HasPrefix(st.ID, owner+".j-") {
		t.Fatalf("job ID %q lacks owner prefix %s", st.ID, owner)
	}
	if got := tc.runs[owner].Load(); got != 1 {
		t.Fatalf("owner ran %d simulations, want 1", got)
	}
	if got := tc.totalRuns(); got != 1 {
		t.Fatalf("cluster ran %d simulations, want 1", got)
	}
}

// TestConcurrentSubmitRunsOnce is the dedup acceptance test: the same
// spec submitted concurrently to two different nodes executes exactly
// once cluster-wide.
func TestConcurrentSubmitRunsOnce(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.gate = make(chan struct{})
	_, otherA := tc.ownerAndOther(t, 7000)
	// Find a second distinct non-owner if one exists; the owner itself
	// is also a fine second entry point.
	owner, _ := tc.ownerAndOther(t, 7000)

	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i, via := range []string{otherA, owner} {
		wg.Add(1)
		go func(i int, via string) {
			defer wg.Done()
			resp, out := postBody(t, tc.srvs[via].URL+"/v1/runs?wait=1", specBody(7000, ""))
			codes[i] = resp.StatusCode
			if resp.StatusCode == http.StatusOK && out.Jobs[0].State != simd.StateDone {
				codes[i] = -1
			}
		}(i, via)
	}
	// Let both submits arrive and dedup before releasing the simulation.
	time.Sleep(100 * time.Millisecond)
	close(tc.gate)
	wg.Wait()

	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("submit %d: HTTP %d", i, c)
		}
	}
	if got := tc.totalRuns(); got != 1 {
		t.Fatalf("cluster ran %d simulations for one spec, want 1", got)
	}
}

// TestOwnerDownFallsBackLocally: with the owner dead, a submit through
// another node retries, trips the breaker, and executes locally.
func TestOwnerDownFallsBackLocally(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	owner, other := tc.ownerAndOther(t, 9000)
	tc.srvs[owner].Close()

	resp, out := postBody(t, tc.srvs[other].URL+"/v1/runs?wait=1", specBody(9000, ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit with owner down: HTTP %d", resp.StatusCode)
	}
	st := out.Jobs[0]
	if st.State != simd.StateDone || st.Node != other {
		t.Fatalf("fallback job: state %s on node %s, want done on %s", st.State, st.Node, other)
	}
	if tc.runs[other].Load() != 1 {
		t.Fatalf("fallback did not run locally on %s", other)
	}

	// Three transport failures tripped the breaker; /v1/cluster shows it.
	cs := tc.nodes[other].ClusterStatus()
	for _, p := range cs.Peers {
		if p.ID == owner {
			if p.Health != "open" {
				t.Errorf("dead peer health %q, want open", p.Health)
			}
			if p.ForwardErrors == 0 {
				t.Error("no forward errors recorded against dead peer")
			}
		}
	}

	// A second submit fails fast (breaker open: no retries, no backoff).
	start := time.Now()
	resp2, _ := postBody(t, tc.srvs[other].URL+"/v1/runs?wait=1", specBody(9001, ""))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second submit with owner down: HTTP %d", resp2.StatusCode)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("breaker open but submit took %s", d)
	}
}

// TestByIDRouting: a job fetched through a node that doesn't own it is
// forwarded to the owner by the ID's node prefix; with the owner dead
// the client gets 502 + X-Fvpd-Forward-Peer.
func TestByIDRouting(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	owner, other := tc.ownerAndOther(t, 11000)

	_, out := postBody(t, tc.srvs[other].URL+"/v1/runs?wait=1", specBody(11000, ""))
	id := out.Jobs[0].ID

	// Every node can answer for the job, wherever it was asked.
	for _, via := range tc.ids {
		resp, err := http.Get(tc.srvs[via].URL + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st simd.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || st.ID != id || st.State != simd.StateDone {
			t.Fatalf("GET via %s: HTTP %d, %+v", via, resp.StatusCode, st)
		}
	}

	tc.srvs[owner].Close()
	resp, err := http.Get(tc.srvs[other].URL + "/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("GET with owner down: HTTP %d, want 502", resp.StatusCode)
	}
	if got := resp.Header.Get(ForwardPeerHeader); got != owner {
		t.Fatalf("%s = %q, want %s", ForwardPeerHeader, got, owner)
	}
}

// TestForwardedSubmitStaysLocal: the hop limit — a request carrying the
// forwarded marker is served where it lands, never re-forwarded.
func TestForwardedSubmitStaysLocal(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	owner, other := tc.ownerAndOther(t, 13000)

	req, err := http.NewRequest(http.MethodPost, tc.srvs[other].URL+"/v1/runs?wait=1",
		strings.NewReader(specBody(13000, "")))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardedHeader, "elsewhere")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded submit: HTTP %d", resp.StatusCode)
	}
	if tc.runs[other].Load() != 1 || tc.runs[owner].Load() != 0 {
		t.Fatalf("forwarded submit ran on owner %s (runs %d/%d), want local %s",
			owner, tc.runs[owner].Load(), tc.runs[other].Load(), other)
	}
}

// TestClusterStatusAndMetrics: GET /v1/cluster lists the full ring, and
// the forwarding counters ride the service's /v1/metrics exposition
// with HELP/TYPE metadata.
func TestClusterStatusAndMetrics(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	owner, other := tc.ownerAndOther(t, 15000)
	if resp, _ := postBody(t, tc.srvs[other].URL+"/v1/runs?wait=1", specBody(15000, "")); resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}

	resp, err := http.Get(tc.srvs[other].URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Self != other || len(st.Peers) != 3 {
		t.Fatalf("cluster status: self %q, %d peers", st.Self, len(st.Peers))
	}
	var fwd uint64
	for _, p := range st.Peers {
		if p.Self != (p.ID == other) {
			t.Errorf("peer %s self flag wrong", p.ID)
		}
		if p.ID == owner {
			fwd = p.Forwarded
		}
	}
	if fwd == 0 {
		t.Error("no forwards recorded against the owner")
	}

	text := metricsText(t, tc.srvs[other].URL)
	for _, want := range []string{
		"# TYPE fvpd_forwarded_total counter",
		"# TYPE fvpd_forward_errors_total counter",
		fmt.Sprintf("fvpd_forwarded_total{peer=%q} 1", owner),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Each node observes every request it answers once: the entry node
	// its client's submit, the owner the forwarded copy.
	const submits = `fvpd_request_seconds_count{path="POST /v1/runs",outcome="ok"} `
	for _, id := range []string{other, owner} {
		if want := submits + "1"; !strings.Contains(metricsText(t, tc.srvs[id].URL), want) {
			t.Errorf("%s exposition missing %q", id, want)
		}
	}
	// A submit the entry node owns itself goes to the service's own
	// handler, and must still be counted once.
	insts := 15001
	for tc.nodes[other].Owner(simd.SpecKey(specFor(insts))) != other {
		insts++
	}
	if resp, _ := postBody(t, tc.srvs[other].URL+"/v1/runs?wait=1", specBody(insts, "")); resp.StatusCode != http.StatusOK {
		t.Fatalf("self-owned submit: HTTP %d", resp.StatusCode)
	}
	if want := submits + "2"; !strings.Contains(metricsText(t, tc.srvs[other].URL), want) {
		t.Errorf("after a self-owned submit, %s exposition missing %q", other, want)
	}
}

// metricsText fetches a node's Prometheus exposition.
func metricsText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestSingleNodePassThrough: with no peers the handler is the plain
// service surface plus GET /v1/cluster; no forwarding metrics appear.
func TestSingleNodePassThrough(t *testing.T) {
	svc := simd.New(simd.Config{Workers: 1, Run: func(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error) {
		return fvp.Metrics{IPC: 1}, nil
	}})
	defer svc.Close()
	node, err := New(Config{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(node.Handler())
	defer srv.Close()

	resp, out := postBody(t, srv.URL+"/v1/runs?wait=1", specBody(1000, ""))
	if resp.StatusCode != http.StatusOK || out.Jobs[0].State != simd.StateDone {
		t.Fatalf("pass-through submit: HTTP %d %+v", resp.StatusCode, out)
	}
	if strings.Contains(out.Jobs[0].ID, ".j-") {
		t.Fatalf("single-node job ID %q carries a node prefix", out.Jobs[0].ID)
	}

	cresp, err := http.Get(srv.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	var st Status
	if err := json.NewDecoder(cresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Self != "" || len(st.Peers) != 1 {
		t.Fatalf("single-node status: %+v", st)
	}

	mresp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	if strings.Contains(string(body), "fvpd_forwarded_total") {
		t.Error("single-node exposition carries forwarding families")
	}
}

// TestQuotaRejectionPropagates: a tenant 429 raised by the owner node
// crosses back through the forwarding node verbatim — status, body,
// Retry-After, and X-Fvpd-Tenant intact.
func TestQuotaRejectionPropagates(t *testing.T) {
	// Rebuild a 2-node cluster where every service has a tight quota for
	// tenant "flood".
	tc := &testCluster{
		svcs:  make(map[string]*simd.Service),
		nodes: make(map[string]*Node),
		srvs:  make(map[string]*httptest.Server),
		runs:  make(map[string]*atomic.Int64),
	}
	peers := make(map[string]string)
	proxies := make(map[string]*swapHandler)
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("node%d", i)
		tc.ids = append(tc.ids, id)
		proxies[id] = &swapHandler{}
		srv := httptest.NewServer(proxies[id])
		tc.srvs[id] = srv
		peers[id] = srv.URL
		tc.runs[id] = &atomic.Int64{}
	}
	gate := make(chan struct{})
	defer close(gate)
	for _, id := range tc.ids {
		svc := simd.New(simd.Config{
			Workers: 1, QueueSize: 16, NodeID: id,
			Tenants: simd.TenantConfig{Quotas: map[string]simd.TenantQuota{
				"flood": {Rate: 0.001, Burst: 1},
			}},
			Run: func(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error) {
				select {
				case <-gate:
				case <-ctx.Done():
				}
				return fvp.Metrics{IPC: 1}, nil
			},
		})
		node, err := New(Config{Service: svc, Self: id, Peers: peers, retryBackoff: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		tc.svcs[id] = svc
		tc.nodes[id] = node
		proxies[id].set(node.Handler())
	}
	t.Cleanup(func() {
		for _, id := range tc.ids {
			tc.srvs[id].Close()
			tc.svcs[id].Close()
		}
	})

	// Find two specs owned by the same node, submitted via the other.
	ownerOf := func(insts int) string {
		return tc.nodes[tc.ids[0]].Owner(simd.SpecKey(specFor(insts)))
	}
	first := 20000
	owner := ownerOf(first)
	second := first + 1
	for ownerOf(second) != owner {
		second++
	}
	via := tc.ids[0]
	if via == owner {
		via = tc.ids[1]
	}

	tbody := func(insts int) string { return specBody(insts, `,"tenant":"flood"`) }
	if resp, _ := postBody(t, tc.srvs[via].URL+"/v1/runs", tbody(first)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first flood submit: HTTP %d", resp.StatusCode)
	}
	resp, _ := postBody(t, tc.srvs[via].URL+"/v1/runs", tbody(second))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second flood submit: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("forwarded 429 lost Retry-After")
	}
	if got := resp.Header.Get("X-Fvpd-Tenant"); got != "flood" {
		t.Errorf("forwarded 429 X-Fvpd-Tenant = %q", got)
	}
}

// batchCountingJobs counts AppendBatch calls: one per admission
// transaction, however many records it carries.
type batchCountingJobs struct {
	store.JobStore
	batches atomic.Int64
}

func (c *batchCountingJobs) AppendBatch(recs []store.JobRecord) error {
	c.batches.Add(1)
	return c.JobStore.AppendBatch(recs)
}

// TestSelfOwnedSubmitsCoalesce: on a clustered node, groups the node owns
// itself go through the service's edge micro-batcher like any other
// submit — N concurrent self-owned submits make one JobStore append and
// one fvpd_batch_size observation of N.
func TestSelfOwnedSubmitsCoalesce(t *testing.T) {
	const n = 4
	jobs := make(map[string]*batchCountingJobs)
	tc := newTestClusterWith(t, 2, func(c *simd.Config) {
		// Only the BatchMax trigger can flush: the window is never waited
		// out, so the merge is deterministic.
		c.BatchWindow, c.BatchMax = time.Minute, n
		jobs[c.NodeID] = &batchCountingJobs{JobStore: store.NewMemoryJobStore()}
		c.Stores.Jobs = jobs[c.NodeID]
	}, nil)

	self := tc.ids[0]
	var insts []int
	for next := 60000; len(insts) < n; next++ {
		if tc.nodes[self].Owner(simd.SpecKey(specFor(next))) == self {
			insts = append(insts, next)
		}
	}
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := range insts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postBody(t, tc.srvs[self].URL+"/v1/runs", specBody(insts[i], ""))
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, code)
		}
	}
	if got := jobs[self].batches.Load(); got != 1 {
		t.Errorf("%d JobStore appends for %d self-owned submits, want 1", got, n)
	}
	if got := tc.forwardedFrom(self); got != 0 {
		t.Errorf("%d forwards for self-owned specs", got)
	}
	mresp, err := http.Get(tc.srvs[self].URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{"fvpd_batch_size_count 1\n", fmt.Sprintf("fvpd_batch_size_sum %d\n", n)} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q", strings.TrimSpace(want))
		}
	}
}

// TestUnversionedRoutesGone: only the /v1 surface is served — the
// pre-versioning paths answer 404 on a single node and on a cluster
// alike, whether the request is routed by the cluster layer or falls
// through to the service.
func TestUnversionedRoutesGone(t *testing.T) {
	svc := simd.New(simd.Config{Workers: 1, Run: func(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error) {
		return fvp.Metrics{IPC: 1}, nil
	}})
	defer svc.Close()
	single, err := New(Config{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(single.Handler())
	defer srv.Close()
	tc := newTestCluster(t, 2, nil)

	for _, base := range []struct{ name, url string }{
		{"single", srv.URL},
		{"cluster", tc.srvs[tc.ids[0]].URL},
	} {
		for _, rt := range []struct{ method, path string }{
			{http.MethodPost, "/runs"},
			{http.MethodGet, "/runs"},
			{http.MethodGet, "/runs/node1.j-00000001"},
			{http.MethodGet, "/metrics"},
			{http.MethodGet, "/workloads"},
		} {
			req, err := http.NewRequest(rt.method, base.url+rt.path, strings.NewReader(specBody(1000, "")))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s: %s %s = HTTP %d, want 404", base.name, rt.method, rt.path, resp.StatusCode)
			}
		}
	}
}

// TestInvalidBatchAdmitsNothing: a cluster node keys a whole batch
// before it routes any of it, so a batch that holds a valid spec owned
// by a peer and an unknown workload the entry node would own by its key
// gets the single node's answer, 400 with the same body, in wait and
// async mode, and no node admits or runs anything.
func TestInvalidBatchAdmitsNothing(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	entry, peer := tc.ids[0], tc.ids[1]
	remote := 30000
	for tc.nodes[entry].Owner(simd.SpecKey(specFor(remote))) != peer {
		remote++
	}
	bad := fvp.RunSpec{Workload: "omnetp", Predictor: "fvp", WarmupInsts: 100, MeasureInsts: 30000}
	for tc.nodes[entry].Owner(simd.SpecKey(bad)) != entry {
		bad.MeasureInsts++
	}
	body := fmt.Sprintf(`{"runs":[%s,{"workload":"omnetp","predictor":"fvp","warmup_insts":100,"measure_insts":%d}]}`,
		specBody(remote, ""), bad.MeasureInsts)

	single := simd.New(simd.Config{Workers: 1, Run: func(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error) {
		return fvp.Metrics{IPC: 1}, nil
	}})
	defer single.Close()
	srv := httptest.NewServer(single.Handler())
	defer srv.Close()
	want := answerOf(t, "POST", srv.URL+"/v1/runs?wait=1", body)
	if !strings.HasPrefix(want, "400 application/json\n") || !strings.Contains(want, `did you mean \"omnetpp\"`) {
		t.Fatalf("single node answered %q", want)
	}
	for _, path := range []string{"/v1/runs?wait=1", "/v1/runs"} {
		if got := answerOf(t, "POST", tc.srvs[entry].URL+path, body); got != want {
			t.Errorf("cluster node answered POST %s with %q, single node %q", path, got, want)
		}
	}
	for _, id := range tc.ids {
		if got := answerOf(t, "GET", tc.srvs[id].URL+"/v1/runs", ""); got != "200 application/json\n{\"jobs\":[]}\n" {
			t.Errorf("%s lists %q after a refused batch, want no job", id, got)
		}
	}
	if n := tc.totalRuns(); n != 0 {
		t.Errorf("%d simulations ran for a refused batch", n)
	}
}

// TestSpeedFloorBatched checks the request plane's batching floor. 16
// clients send 512 unique submits to a disk-backed two-node cluster
// through the node that owns none of them, while the owner's workers are
// gated shut. So the flood times HTTP on both nodes, the forward hop,
// admission and the owner's fsync'd JobStore appends. With the edge
// micro-batcher and the forward coalescer on (BatchWindow 2ms, BatchMax
// 16) it runs at least 2× faster than per request, in the median of 8
// pairs. Each side floods a fresh cluster.
func TestSpeedFloorBatched(t *testing.T) {
	flood := func(batched bool) func() time.Duration {
		return func() (wall time.Duration) {
			if !t.Run(fmt.Sprintf("batched=%v", batched), func(t *testing.T) {
				wall = floodSubmits(t, batched, 16, 512)
			}) {
				t.FailNow()
			}
			return wall
		}
	}
	speedFloor(t, 8, 2, flood(false), flood(true))
}

// floodSubmits sends requests unique submits from clients concurrent
// clients to a gated two-node cluster, all owned by the node they do not
// enter at, and returns the flood's wall time.
func floodSubmits(t *testing.T, batched bool, clients, requests int) time.Duration {
	dir := t.TempDir()
	tc := newTestClusterWith(t, 2, func(c *simd.Config) {
		stores, err := disk.Open(filepath.Join(dir, c.NodeID), disk.Options{CacheEntries: requests + 16})
		if err != nil {
			t.Fatal(err)
		}
		c.Workers, c.QueueSize, c.Stores = 1, requests+16, stores
		if batched {
			c.BatchWindow, c.BatchMax = 2*time.Millisecond, 16
		}
	}, nil)
	tc.gate = make(chan struct{})
	defer close(tc.gate) // release the queued jobs before the cluster closes
	entry, owner := tc.ids[0], tc.ids[1]
	insts := make([]int, 0, requests)
	for v := 1_000_000; len(insts) < requests; v++ {
		if tc.nodes[entry].Owner(simd.SpecKey(specFor(v))) == owner {
			insts = append(insts, v)
		}
	}
	tr := &http.Transport{MaxIdleConnsPerHost: clients}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(requests); i = next.Add(1) - 1 {
				resp, err := hc.Post(tc.srvs[entry].URL+"/v1/runs", "application/json", strings.NewReader(specBody(insts[i], "")))
				if err != nil {
					failed.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode >= 300 {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if n := failed.Load(); n > 0 {
		t.Fatalf("%d of %d submits failed", n, requests)
	}
	return wall
}

// speedFloor checks a speed floor when FVP_SPEED_GATE is set and skips t
// otherwise. It times slow and fast in pairs interleaved pairs,
// alternating which runs first, and fails t when the median of the pairs'
// slow/fast time ratios is under floor. Each side builds its own system
// and returns the time of its timed region.
func speedFloor(t *testing.T, pairs int, floor float64, slow, fast func() time.Duration) {
	t.Helper()
	if os.Getenv("FVP_SPEED_GATE") == "" {
		t.Skip("set FVP_SPEED_GATE=1 to check the speed floor")
	}
	ratios := make([]float64, pairs)
	for i := range ratios {
		var s, f time.Duration
		if i%2 == 0 {
			f, s = fast(), slow()
		} else {
			s, f = slow(), fast()
		}
		ratios[i] = s.Seconds() / f.Seconds()
		t.Logf("pair %d: %v vs %v: %.2fx", i+1, s.Round(time.Millisecond), f.Round(time.Millisecond), ratios[i])
	}
	sort.Float64s(ratios)
	med := (ratios[(pairs-1)/2] + ratios[pairs/2]) / 2
	t.Logf("median %.2fx over %d pairs, floor %.1fx", med, pairs, floor)
	if med < floor {
		t.Errorf("median speed-up %.2fx is under the %.1fx floor", med, floor)
	}
}
