package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"fvp/internal/simd"
)

// hotTrackCap bounds the heat-tracking map. Keys arriving past the cap
// are simply not tracked (they can still be served, forwarded, and
// cached normally); a hot key that matters will re-enter once terminal
// entries are retired by push completion. The cap exists so an
// adversarial spec flood cannot grow the owner's heap.
const hotTrackCap = 4096

// replicator implements hot-result replication on a cluster node. The
// owner of a spec key counts the demand it sees for that key (its own
// submits plus forwarded-in traffic); when a key's hit count crosses
// ReplicateAfter and its result is cached, the result is pushed to the
// key's ring successors (Config.Replicas of them) via PUT
// /v1/replicas/{key}. Successors install the payload in their own
// result cache, after which they serve submits for that key locally —
// zero forward hops — and keep serving it if the owner dies, with zero
// recomputes.
//
// Replication never needs invalidation: a spec key is the content
// address of a deterministic simulation's input, so the value it maps
// to is immutable and a replica can never be stale.
type replicator struct {
	n         *Node
	replicas  int // successors pushed to; 0 disables pushing and local serving
	threshold int // hits before a key is pushed

	mu  sync.Mutex
	hot map[string]*hotEntry

	pushed   map[string]*atomic.Uint64 // per-peer successful pushes
	received atomic.Uint64             // replicas accepted from owners
	hits     atomic.Uint64             // submits served from a local replica
}

// hotEntry tracks one self-owned key's demand and push state.
type hotEntry struct {
	hits    int
	pushing bool // a push goroutine is in flight
	done    bool // replicas confirmed on every reachable successor
}

func newReplicator(n *Node, replicas, threshold int) *replicator {
	rp := &replicator{
		n: n, replicas: replicas, threshold: threshold,
		hot:    make(map[string]*hotEntry),
		pushed: make(map[string]*atomic.Uint64, len(n.peers)),
	}
	for id := range n.peers {
		rp.pushed[id] = &atomic.Uint64{}
	}
	return rp
}

// note counts one unit of demand for a self-owned key and starts the
// replica push when it crosses the threshold. A push that could not
// complete (result not yet computed, successor unreachable) re-arms on
// the next note, so heat keeps retrying until the replicas land.
func (rp *replicator) note(key string) {
	if rp == nil || rp.replicas <= 0 {
		return
	}
	rp.mu.Lock()
	e := rp.hot[key]
	if e == nil {
		if len(rp.hot) >= hotTrackCap {
			rp.mu.Unlock()
			return
		}
		e = &hotEntry{}
		rp.hot[key] = e
	}
	e.hits++
	start := !e.done && !e.pushing && e.hits >= rp.threshold
	if start {
		e.pushing = true
	}
	rp.mu.Unlock()
	if start {
		go rp.push(key)
	}
}

// push sends the key's cached result to every ring successor. All
// successors acknowledging marks the key done; any failure leaves it
// re-armed for the next note.
func (rp *replicator) push(key string) {
	val, ok := rp.n.svc.CachedResultBytes(key)
	if ok {
		for _, id := range rp.n.ring.successors(key, rp.replicas) {
			p := rp.n.peers[id]
			if p == nil {
				continue
			}
			if err := rp.n.pushReplica(p, key, val); err != nil {
				ok = false
				continue
			}
			rp.pushed[id].Add(1)
		}
	}
	rp.mu.Lock()
	if e := rp.hot[key]; e != nil {
		e.pushing = false
		e.done = ok
	}
	rp.mu.Unlock()
}

// servesLocally reports whether a key this node does NOT own should be
// served from the local cache anyway — the replica read path. Gated on
// replication being enabled so a replica-less deployment keeps the
// strict route-to-owner behavior (and its cluster-wide dedup) intact.
func (rp *replicator) servesLocally(key string) bool {
	if rp == nil || rp.replicas <= 0 {
		return false
	}
	if !rp.n.svc.HasCachedResult(key) {
		return false
	}
	rp.hits.Add(1)
	return true
}

// pushReplica PUTs one replicated result to a successor, through the
// same breaker-gated round trip as any other forward.
func (n *Node) pushReplica(p *peer, key string, val []byte) error {
	resp, err := n.roundTrip(context.Background(), p, http.MethodPut, "/v1/replicas/"+key, val, true)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("cluster: replica push to %s: HTTP %d", p.id, resp.StatusCode)
	}
	return nil
}

// handleReplicaPut is the receiving half: install a pushed result in
// the local cache. The service validates the payload decodes as metrics
// before caching, so a confused peer cannot poison the cache.
func (n *Node) handleReplicaPut(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(io.LimitReader(r.Body, 8<<20))
	if err != nil {
		simd.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if err := n.svc.PutCachedResult(r.PathValue("key"), raw); err != nil {
		simd.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if n.rep != nil {
		n.rep.received.Add(1)
	}
	w.WriteHeader(http.StatusNoContent)
}
