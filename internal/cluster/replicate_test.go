package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"fvp"
	"fvp/internal/simd"
)

// waitUntil polls cond until it holds or the deadline lapses.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// forwardedFrom sums the forward round trips a node has completed to
// all its peers — the hop count a replica hit must leave unchanged.
func (tc *testCluster) forwardedFrom(via string) uint64 {
	var n uint64
	for _, p := range tc.nodes[via].ClusterStatus().Peers {
		n += p.Forwarded
	}
	return n
}

// TestHotResultReplication: once a key's demand at its owner crosses
// ReplicateAfter, the result is pushed to the ring successors; from then
// on a non-owner serves submits for it from its own cache — zero forward
// hops, zero recomputes — and keeps doing so after the owner dies.
func TestHotResultReplication(t *testing.T) {
	tc := newTestCluster(t, 3, func(c *Config) {
		c.Replicas = 2
		c.ReplicateAfter = 2
	})
	owner, other := tc.ownerAndOther(t, 30000)
	key := simd.SpecKey(specFor(30000))

	// Two submits at the owner: the first computes and caches, the
	// second crosses the threshold and starts the push.
	for i := 0; i < 2; i++ {
		if resp, _ := postBody(t, tc.srvs[owner].URL+"/v1/runs?wait=1", specBody(30000, "")); resp.StatusCode != http.StatusOK {
			t.Fatalf("owner submit %d: HTTP %d", i, resp.StatusCode)
		}
	}
	// With 3 nodes and Replicas=2 every non-owner is a successor.
	for _, id := range tc.ids {
		if id == owner {
			continue
		}
		id := id
		waitUntil(t, "replica on "+id, func() bool { return tc.svcs[id].HasCachedResult(key) })
	}

	hopsBefore := tc.forwardedFrom(other)
	resp, out := postBody(t, tc.srvs[other].URL+"/v1/runs?wait=1", specBody(30000, ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replica-hit submit: HTTP %d", resp.StatusCode)
	}
	st := out.Jobs[0]
	if !st.Cached || st.State != simd.StateDone || st.Metrics == nil {
		t.Fatalf("replica hit not served from cache: %+v", st)
	}
	if st.Node != other {
		t.Fatalf("replica hit ran on %s, want locally on %s", st.Node, other)
	}
	if got := tc.forwardedFrom(other); got != hopsBefore {
		t.Fatalf("replica hit cost %d forward hops, want 0", got-hopsBefore)
	}
	if got := tc.totalRuns(); got != 1 {
		t.Fatalf("cluster ran %d simulations, want 1", got)
	}

	// Owner loss: the hot key survives on its replicas with no recompute.
	tc.srvs[owner].Close()
	resp2, out2 := postBody(t, tc.srvs[other].URL+"/v1/runs?wait=1", specBody(30000, ""))
	if resp2.StatusCode != http.StatusOK || !out2.Jobs[0].Cached {
		t.Fatalf("post-owner-kill submit: HTTP %d, cached=%v", resp2.StatusCode, out2.Jobs[0].Cached)
	}
	if got := tc.totalRuns(); got != 1 {
		t.Fatalf("owner death forced %d recomputes", got-1)
	}

	// The replication counters ride the owner-side and receiver-side
	// expositions.
	mresp, err := http.Get(tc.srvs[other].URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	text := buf.String()
	for _, want := range []string{
		"fvpd_replica_received_total 1",
		"# TYPE fvpd_replica_hits_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if !strings.Contains(text, "fvpd_replica_hits_total 2") {
		t.Errorf("replica hits not counted: %s", text[strings.Index(text, "fvpd_replica_hits_total"):])
	}
}

// TestReplicaConsistencyUnderRace: replicated reads can never be stale,
// because a spec key content-addresses a deterministic simulation's
// immutable result. Concurrent replica installs and replica-path reads
// must always observe the one true value. Run under -race this also
// proves the push/serve paths share no unsynchronized state.
func TestReplicaConsistencyUnderRace(t *testing.T) {
	tc := newTestCluster(t, 2, func(c *Config) {
		c.Replicas = 1
		c.ReplicateAfter = 1
	})
	owner, other := tc.ownerAndOther(t, 40000)
	key := simd.SpecKey(specFor(40000))

	if resp, _ := postBody(t, tc.srvs[owner].URL+"/v1/runs?wait=1", specBody(40000, "")); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed submit: HTTP %d", resp.StatusCode)
	}
	val, ok := tc.svcs[owner].CachedResultBytes(key)
	if !ok {
		t.Fatal("owner did not cache the seed result")
	}

	const readers, writers = 4, 2
	var wg sync.WaitGroup
	errs := make(chan error, readers*8+writers*8)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				req, err := http.NewRequest(http.MethodPut,
					tc.srvs[other].URL+"/v1/replicas/"+key, bytes.NewReader(val))
				if err != nil {
					errs <- err
					return
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusNoContent {
					errs <- fmt.Errorf("replica PUT: HTTP %d", resp.StatusCode)
				}
			}
		}()
	}
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				resp, out := postBody(t, tc.srvs[other].URL+"/v1/runs?wait=1", specBody(40000, ""))
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("read submit: HTTP %d", resp.StatusCode)
					return
				}
				st := out.Jobs[0]
				var m fvp.Metrics
				if err := json.Unmarshal(st.Metrics, &m); err != nil || m.IPC != 1 {
					errs <- fmt.Errorf("stale or wrong replica read: %+v", st)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := tc.totalRuns(); got != 1 {
		t.Errorf("cluster ran %d simulations, want 1", got)
	}
}

// TestForwardCoalescing: concurrent submits through a non-owner that
// target the same peer merge into one forwarded POST — BatchMax riders,
// a single HTTP round trip, every caller getting its own status back.
// The forward coalescer takes its window from the service it fronts.
func TestForwardCoalescing(t *testing.T) {
	const riders = 4
	tc := newTestClusterWith(t, 2, func(c *simd.Config) {
		// Only the BatchMax trigger can flush: the window is never
		// waited out, so the merge is deterministic.
		c.BatchWindow = time.Minute
		c.BatchMax = riders
	}, nil)

	// Four distinct specs owned by the same (remote) node.
	owner, via := tc.ownerAndOther(t, 50000)
	insts := []int{50000}
	for next := 50001; len(insts) < riders; next++ {
		if tc.nodes[via].Owner(simd.SpecKey(specFor(next))) == owner {
			insts = append(insts, next)
		}
	}

	var wg sync.WaitGroup
	statuses := make([]simd.JobStatus, riders)
	codes := make([]int, riders)
	for i := 0; i < riders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, out := postBody(t, tc.srvs[via].URL+"/v1/runs?wait=1", specBody(insts[i], ""))
			codes[i] = resp.StatusCode
			if resp.StatusCode == http.StatusOK {
				statuses[i] = out.Jobs[0]
			}
		}(i)
	}
	wg.Wait()

	for i := 0; i < riders; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("rider %d: HTTP %d", i, codes[i])
		}
		if statuses[i].State != simd.StateDone || statuses[i].Node != owner {
			t.Fatalf("rider %d: state %s on %s, want done on %s", i, statuses[i].State, statuses[i].Node, owner)
		}
	}
	if got := tc.runs[owner].Load(); got != riders {
		t.Fatalf("owner ran %d simulations, want %d", got, riders)
	}
	if got := tc.forwardedFrom(via); got != 1 {
		t.Fatalf("%d forwarded round trips for %d riders, want 1", got, riders)
	}
}
