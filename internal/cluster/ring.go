// Package cluster turns a set of independent fvpd nodes into one
// logical service. Each node runs the full internal/simd stack; this
// package adds a thin HTTP routing layer in front of it that shards
// work by content address. A consistent-hash ring over the static peer
// list maps every run's spec key (the same sha256 address the service
// dedups and caches on) to exactly one owner node, and non-owners
// transparently forward submits over the existing /v1 wire API. Because
// ownership, dedup, and caching all key on the spec address, a spec
// submitted concurrently to any subset of nodes still executes exactly
// once — on its owner — and every node's clients see the same cached
// result afterwards.
//
// The layer is deliberately peer-to-peer and static: no coordinator,
// no membership protocol, no data migration. Losing a node loses only
// routing affinity — forwarding falls back to local execution behind a
// circuit breaker, trading dedup for availability until the peer
// returns.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ring is a consistent-hash ring over node IDs. Each node projects
// vnodes virtual points onto a 64-bit circle; a key is owned by the
// node whose next point clockwise from the key's hash. Virtual points
// smooth the load split (with 64 points per node the imbalance across
// a handful of nodes stays within a few percent) and keep remappings
// proportional to 1/n when the peer list changes between deployments.
type ring struct {
	points []ringPoint // sorted by hash, ascending
	nodes  []string    // member IDs, sorted
}

type ringPoint struct {
	hash uint64
	node string
}

// hash64 is fnv-1a; stdlib-only and stable across processes, which is
// what matters — every node must agree on the circle.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// vnodes is the virtual points per node. It is a constant because nodes
// with different counts would disagree on who owns a key.
const vnodes = 64

// newRing builds the circle for the given members.
func newRing(members []string) *ring {
	r := &ring{nodes: append([]string(nil), members...)}
	sort.Strings(r.nodes)
	r.points = make([]ringPoint, 0, len(r.nodes)*vnodes)
	for _, n := range r.nodes {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{
				hash: hash64(fmt.Sprintf("%s#%d", n, i)),
				node: n,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by node name so every
		// node still computes an identical ring.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// owner returns the node that owns key: the first ring point at or
// clockwise-after hash(key), wrapping at the top of the circle.
func (r *ring) owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// successors returns up to n distinct nodes clockwise after key's owner,
// excluding the owner itself — the replica set hot results are pushed
// to. Every node computes the same set, so a non-owner can predict
// whether it should hold a replica without asking anyone. Fewer than n
// nodes come back when the ring has fewer members.
func (r *ring) successors(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	seen := map[string]bool{r.points[i].node: true}
	var out []string
	for step := 1; step <= len(r.points) && len(out) < n; step++ {
		node := r.points[(i+step)%len(r.points)].node
		if !seen[node] {
			seen[node] = true
			out = append(out, node)
		}
	}
	return out
}
