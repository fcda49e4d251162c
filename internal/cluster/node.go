package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"fvp/internal/simd"
	"fvp/internal/telemetry"
)

// Wire headers of the cluster layer.
const (
	// ForwardedHeader marks a request that already crossed one node
	// boundary. Forwarded requests are always served locally — the hop
	// limit is 1 — so a stale or disagreeing ring can never loop a
	// request around the cluster.
	ForwardedHeader = "X-Fvpd-Forwarded"
	// ForwardPeerHeader names the peer a failed by-ID forward was
	// destined for; it rides on the 502 so clients can tell "job's owner
	// is down" from "job does not exist".
	ForwardPeerHeader = "X-Fvpd-Forward-Peer"
)

// Config wires a Node in front of a running simd.Service.
type Config struct {
	// Service is the local batch-simulation service. Required.
	Service *simd.Service
	// Self is this node's ID; it must appear as a key in Peers when
	// Peers is non-empty, and should match the service's NodeID so job
	// IDs route back here.
	Self string
	// Peers maps node ID → base URL ("http://host:port") for every
	// cluster member including this one. Empty or self-only means
	// single-node mode: the Node adds GET /v1/cluster and otherwise
	// passes every request straight to the service, byte-identical to a
	// peerless deployment.
	Peers map[string]string
	// Replicas is how many ring successors a hot result is pushed to,
	// and the opt-in for serving replicated keys locally on non-owners.
	// 0 (the default) disables replication entirely.
	Replicas int
	// ReplicateAfter is the demand threshold: a self-owned key is pushed
	// to its successors once the owner has seen this many submits for it.
	// Default 3.
	ReplicateAfter int

	// forwardTimeout bounds one non-wait forward attempt; default 10s.
	// Wait-mode submits are exempt (their response legitimately arrives
	// only when the simulation finishes) and are bounded by the
	// submitting client's own connection instead. Tests shorten it.
	forwardTimeout time.Duration
	// retryBackoff is the delay between forward retries; default 50ms.
	// Tests shorten it.
	retryBackoff time.Duration
}

// Forwarding constants.
const (
	// forwardRetries is how many times a transport-failed forward is
	// retried before falling back.
	forwardRetries = 2
	// breakerThreshold is the consecutive transport failures that open
	// a peer's circuit breaker.
	breakerThreshold = 3
	// breakerCooldown is how long an open breaker fails fast before
	// letting one probe through.
	breakerCooldown = 5 * time.Second
)

// ParsePeers parses the -peers flag: "id=url,id=url,...". Every node in
// a cluster must be started with the same list (plus its own -node-id)
// so all rings agree.
func ParsePeers(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	peers := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("cluster: bad peer %q, want id=url", part)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("cluster: duplicate peer id %q", id)
		}
		peers[id] = strings.TrimSuffix(url, "/")
	}
	return peers, nil
}

func (c Config) withDefaults() Config {
	if c.forwardTimeout <= 0 {
		c.forwardTimeout = 10 * time.Second
	}
	if c.retryBackoff <= 0 {
		c.retryBackoff = 50 * time.Millisecond
	}
	if c.ReplicateAfter <= 0 {
		c.ReplicateAfter = 3
	}
	return c
}

// Node is the cluster routing layer of one fvpd instance. It fronts
// the service's HTTP handler, owns the hash ring and per-peer
// forwarders, and registers the fvpd_forward* metric families on the
// service's exposition so /v1/metrics stays the single scrape target.
type Node struct {
	cfg   Config
	svc   *simd.Service
	inner http.Handler
	ring  *ring
	peers map[string]*peer // remote members only (never Self)
	hc    *http.Client

	// rep is the hot-result replication engine; nil outside cluster mode.
	rep *replicator
	// fwdHist is fvpd_forward_seconds{peer}: round-trip latency of every
	// breaker-gated forward (submits, by-ID lookups, replica pushes).
	fwdHist *telemetry.Vec

	// fwd holds the per-(peer, wait-mode) forward coalescers, created on
	// first use; empty unless the service batches (simd.Config.BatchWindow).
	fwdMu sync.Mutex
	fwd   map[string]*fwdBatcher
}

// New builds the routing layer. With no peers the result is a
// pass-through plus GET /v1/cluster; with peers, Self must be one of
// them.
func New(cfg Config) (*Node, error) {
	if cfg.Service == nil {
		return nil, errors.New("cluster: Config.Service is required")
	}
	cfg = cfg.withDefaults()
	if len(cfg.Peers) > 0 {
		if cfg.Self == "" {
			return nil, errors.New("cluster: Self is required when Peers is set")
		}
		if _, ok := cfg.Peers[cfg.Self]; !ok {
			return nil, fmt.Errorf("cluster: Self %q is not in Peers", cfg.Self)
		}
	}
	n := &Node{
		cfg:   cfg,
		svc:   cfg.Service,
		inner: cfg.Service.Handler(),
		peers: make(map[string]*peer),
		hc: &http.Client{
			// No global timeout: wait-mode forwards block until the
			// simulation completes. Per-attempt deadlines come from the
			// request contexts instead.
			Transport: http.DefaultTransport,
		},
	}
	members := make([]string, 0, len(cfg.Peers))
	for id, url := range cfg.Peers {
		members = append(members, id)
		if id != cfg.Self {
			n.peers[id] = &peer{id: id, url: url}
		}
	}
	n.ring = newRing(members)
	n.fwdHist = telemetry.NewVec(telemetry.NewLatency)
	n.fwd = make(map[string]*fwdBatcher)
	if n.clustered() {
		n.rep = newReplicator(n, cfg.Replicas, cfg.ReplicateAfter)
		cfg.Service.AddMetricsAppender(n.writeMetrics)
		if cfg.Replicas > 0 {
			// Every submit a node admits, its own or forwarded in, is demand
			// the owner counts: hot keys are usually hot precisely because
			// other nodes keep forwarding them here.
			cfg.Service.ObserveKeys(func(key string) {
				if n.ring.owner(key) == n.cfg.Self {
					n.rep.note(key)
				}
			})
		}
	}
	return n, nil
}

// clustered reports whether there is anyone to forward to.
func (n *Node) clustered() bool { return len(n.peers) > 0 }

// Owner returns the node ID owning a spec key (exported for tests and
// tools; fvpsim uses it to explain routing).
func (n *Node) Owner(specKey string) string { return n.ring.owner(specKey) }

// Handler returns the cluster-aware HTTP API. In single-node mode only
// GET /v1/cluster is added; the rest of the surface is the service's
// own handler, untouched. In cluster mode, submits and by-ID lookups
// are routed by ownership and everything else stays local. The node's
// own routes are instrumented like the service's, and a request one of
// them hands on to the service is observed once, under the node's route.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, n.svc.Instrument(pattern, h))
	}
	route("GET /v1/cluster", n.handleClusterStatus)
	if n.clustered() {
		route("POST /v1/runs", n.handleSubmit)
		route("PUT /v1/replicas/{key}", n.handleReplicaPut)
		route("GET /v1/runs/{id}", n.handleByID)
		route("GET /v1/runs/{id}/trace", n.handleByID)
		route("DELETE /v1/runs/{id}", n.handleByID)
	}
	mux.Handle("/", n.inner)
	return mux
}

// --- status ---

// Status is the body of GET /v1/cluster.
type Status struct {
	// Self is this node's ID ("" for a single-node deployment).
	Self string `json:"self"`
	// VNodes is the ring's virtual points per node.
	VNodes int `json:"vnodes"`
	// Peers lists every cluster member, self included, sorted by ID.
	Peers []PeerStatus `json:"peers"`
}

// PeerStatus is one member's row in Status.
type PeerStatus struct {
	ID  string `json:"id"`
	URL string `json:"url,omitempty"`
	// Self marks the reporting node's own row.
	Self bool `json:"self,omitempty"`
	// Health is the forwarding circuit-breaker state as seen from this
	// node: "ok", "open" (failing fast), or "half-open" (probing).
	Health string `json:"health"`
	// Inflight counts forwards to this peer currently outstanding.
	Inflight int `json:"inflight"`
	// Forwarded counts forwards that completed an HTTP round trip.
	Forwarded uint64 `json:"forwarded"`
	// ForwardErrors counts forward attempts lost to transport failures.
	ForwardErrors uint64 `json:"forward_errors"`
	// LastError is the most recent transport failure, if any.
	LastError string `json:"last_error,omitempty"`
}

// ClusterStatus snapshots the ring and per-peer forwarding state.
func (n *Node) ClusterStatus() Status {
	st := Status{Self: n.cfg.Self, VNodes: vnodes}
	st.Peers = append(st.Peers, PeerStatus{
		ID:     n.cfg.Self,
		URL:    n.cfg.Peers[n.cfg.Self],
		Self:   true,
		Health: "ok",
	})
	for _, p := range n.peers {
		st.Peers = append(st.Peers, p.snapshot())
	}
	sort.Slice(st.Peers, func(i, j int) bool { return st.Peers[i].ID < st.Peers[j].ID })
	return st
}

func (n *Node) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(n.ClusterStatus())
}

// writeMetrics appends the forwarding families to the service's
// Prometheus exposition.
func (n *Node) writeMetrics(w io.Writer) {
	ids := make([]string, 0, len(n.peers))
	for id := range n.peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	fmt.Fprintf(w, "# HELP fvpd_forwarded_total Requests forwarded to each peer that completed an HTTP round trip.\n# TYPE fvpd_forwarded_total counter\n")
	for _, id := range ids {
		fmt.Fprintf(w, "fvpd_forwarded_total{peer=%q} %d\n", id, n.peers[id].snapshot().Forwarded)
	}
	fmt.Fprintf(w, "# HELP fvpd_forward_errors_total Forward attempts lost to transport failures, per peer.\n# TYPE fvpd_forward_errors_total counter\n")
	for _, id := range ids {
		fmt.Fprintf(w, "fvpd_forward_errors_total{peer=%q} %d\n", id, n.peers[id].snapshot().ForwardErrors)
	}
	n.fwdHist.WriteProm(w, "fvpd_forward_seconds",
		"Round-trip latency of breaker-gated forwards to each peer (submit batches, by-ID lookups, replica pushes); headers-received, not body drain.")
	if n.rep != nil {
		fmt.Fprintf(w, "# HELP fvpd_replica_pushed_total Hot results successfully pushed to each ring successor.\n# TYPE fvpd_replica_pushed_total counter\n")
		for _, id := range ids {
			fmt.Fprintf(w, "fvpd_replica_pushed_total{peer=%q} %d\n", id, n.rep.pushed[id].Load())
		}
		fmt.Fprintf(w, "# HELP fvpd_replica_received_total Replicated results accepted from owners into the local cache.\n# TYPE fvpd_replica_received_total counter\nfvpd_replica_received_total %d\n", n.rep.received.Load())
		fmt.Fprintf(w, "# HELP fvpd_replica_hits_total Submits for non-owned keys served from a local replica, zero forward hops.\n# TYPE fvpd_replica_hits_total counter\nfvpd_replica_hits_total %d\n", n.rep.hits.Load())
	}
}

// --- submit routing ---

// submitOutcome is one owner group's failure, the first of which is the
// batch's answer: a peer's non-2xx response as it sent it, or an error
// from the local service (rendered by WriteSubmitError).
type submitOutcome struct {
	code   int
	header http.Header // Retry-After / X-Fvpd-Tenant etc., remote errors only
	body   []byte      // raw error body, remote errors only
	err    error       // local submit error
}

func (n *Node) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(ForwardedHeader) != "" {
		// Hop limit: a forwarded submit executes here no matter what our
		// ring says, so two nodes with momentarily different peer lists
		// cannot bounce a request back and forth.
		n.inner.ServeHTTP(w, r)
		return
	}
	// The whole batch is read and keyed before any of it moves: a body
	// the service would refuse is refused here, and nothing is forwarded.
	ks, ok := simd.ReadSubmit(w, r)
	if !ok {
		return
	}
	wait := r.URL.Query().Get("wait") != ""

	// Group the batch by owner. Routing hashes the same spec key the
	// service dedups on, so concurrent submits of one spec — to any
	// node — meet at the owner and collapse to a single simulation.
	type group struct {
		idxs []int
		ks   []simd.Keyed
	}
	groups := make(map[string]*group)
	for i, k := range ks {
		owner := n.ring.owner(k.Key)
		if owner != n.cfg.Self && n.rep.servesLocally(k.Key) {
			// A replicated hot result lives in our own cache: serve it here,
			// zero hops, and keep serving it if the owner is gone.
			owner = n.cfg.Self
		}
		g := groups[owner]
		if g == nil {
			g = &group{}
			groups[owner] = g
		}
		g.idxs = append(g.idxs, i)
		g.ks = append(g.ks, k)
	}

	// Fan out: every owner group runs concurrently (local execution
	// included), so one slow peer doesn't serialize the batch. Groups
	// that fail at the transport after retries fall back to local
	// execution — availability over affinity. If any group errors, the
	// first error response wins verbatim; jobs admitted by other groups
	// stay admitted (a batch is not a transaction — callers that need
	// all-or-nothing submit one group per request). Each group fills its
	// requests' slots with encoded job elements: an owner's as it sent
	// them, a local group's as the service's answer encoded them.
	jobs := make([]json.RawMessage, len(ks))
	var (
		mu       sync.Mutex
		firstOut *submitOutcome
		wg       sync.WaitGroup
	)
	for owner, g := range groups {
		wg.Add(1)
		go func(owner string, g *group) {
			defer wg.Done()
			var elems []json.RawMessage
			var out *submitOutcome
			var err error
			if owner == n.cfg.Self {
				elems, err = n.svc.Answer(r.Context(), g.ks, wait)
			} else if elems, out, err = n.forward(r.Context(), owner, g.ks, wait); err != nil && r.Context().Err() == nil {
				// The owner is unreachable: run here, give up dedup.
				elems, err = n.svc.Answer(r.Context(), g.ks, wait)
			}
			if err != nil {
				out = &submitOutcome{err: err}
			}
			if out != nil {
				mu.Lock()
				if firstOut == nil {
					firstOut = out
				}
				mu.Unlock()
				return
			}
			for i, el := range elems {
				jobs[g.idxs[i]] = el
			}
		}(owner, g)
	}
	wg.Wait()

	switch {
	case r.Context().Err() != nil:
		// The client is gone; its waited-on jobs are canceled.
	case firstOut == nil:
		simd.WriteJobs(w, wait, jobs)
	case firstOut.err != nil:
		simd.WriteSubmitError(w, firstOut.err)
	default:
		for _, k := range []string{"Retry-After", "X-Fvpd-Tenant", "Content-Type"} {
			if v := firstOut.header.Get(k); v != "" {
				w.Header().Set(k, v)
			}
		}
		w.WriteHeader(firstOut.code)
		w.Write(firstOut.body)
	}
}

// forwardSubmit sends one owner group to its peer as a {"runs":[...]}
// batch. It returns the peer's job elements on 2xx, split out of its
// answer undecoded by simd.SplitJobs, one per request; the raw error
// response on a non-2xx (the peer is alive; its answer — a 429 quota
// rejection, a 503 backpressure — belongs to the client); or a transport
// error after the breaker/retry budget is spent (the caller falls back to
// local execution).
func (n *Node) forwardSubmit(ctx context.Context, p *peer, ks []simd.Keyed, wait bool) ([]json.RawMessage, *submitOutcome, error) {
	reqs := make([]simd.RunRequest, len(ks))
	for i, k := range ks {
		reqs[i] = k.Req
	}
	body, err := json.Marshal(struct {
		Runs []simd.RunRequest `json:"runs"`
	}{reqs})
	if err != nil {
		return nil, nil, err
	}
	path := "/v1/runs"
	if wait {
		path += "?wait=1"
	}
	var lastErr error
	for attempt := 0; attempt <= forwardRetries; attempt++ {
		if attempt > 0 {
			if sleepBackoff(ctx, n.cfg.retryBackoff) != nil {
				return nil, nil, ctx.Err()
			}
		}
		resp, err := n.roundTrip(ctx, p, http.MethodPost, path, body, !wait)
		if err != nil {
			if ctx.Err() != nil {
				return nil, nil, ctx.Err()
			}
			lastErr = err
			continue
		}
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode < 200 || resp.StatusCode > 299 {
			return nil, &submitOutcome{code: resp.StatusCode, header: resp.Header, body: raw}, nil
		}
		elems := simd.SplitJobs(raw)
		if len(elems) != len(reqs) {
			return nil, nil, fmt.Errorf("cluster: peer %s returned a malformed response for %d runs: %.200q", p.id, len(reqs), raw)
		}
		return elems, nil, nil
	}
	return nil, nil, lastErr
}

// roundTrip performs one breaker-gated forward attempt. bounded adds
// the forwardTimeout deadline (wait-mode submits are unbounded by
// design). The returned response's Body is open on success.
func (n *Node) roundTrip(parent context.Context, p *peer, method, path string, body []byte, bounded bool) (*http.Response, error) {
	if err := p.begin(time.Now()); err != nil {
		return nil, err
	}
	ctx, cancel := parent, context.CancelFunc(func() {})
	if bounded {
		ctx, cancel = context.WithTimeout(parent, n.cfg.forwardTimeout)
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, p.url+path, rd)
	if err != nil {
		cancel()
		p.done(err, false, time.Now())
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(ForwardedHeader, n.cfg.Self)
	start := time.Now()
	resp, err := n.hc.Do(req)
	if err != nil {
		// A forwardTimeout expiry is the peer's failure; the submitting
		// client's own cancellation (parent done) is nobody's fault.
		cancel()
		p.done(err, parent.Err() != nil, time.Now())
		return nil, err
	}
	// Hand the body to the caller; tie the deadline's release to it.
	// Latency is first-byte-of-headers, not body drain: wait-mode bodies
	// legitimately take as long as the simulation runs.
	n.fwdHist.With("peer=" + strconv.Quote(p.id)).Observe(time.Since(start).Seconds())
	resp.Body = &cancelOnClose{ReadCloser: resp.Body, cancel: cancel}
	p.done(nil, false, time.Now())
	p.responded()
	return resp, nil
}

type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (c *cancelOnClose) Close() error {
	err := c.ReadCloser.Close()
	c.cancel()
	return err
}

// --- by-ID routing ---

// handleByID routes GET/DELETE /v1/runs/{id}[/trace] by the node
// prefix baked into cluster job IDs ("<node>.j-<n>"). IDs minted here,
// bare pre-cluster IDs, and IDs of unknown nodes are served locally;
// anything else forwards verbatim to the owning node. There is no
// local fallback — the job lives on exactly one node — so an
// unreachable owner surfaces as 502 + X-Fvpd-Forward-Peer.
func (n *Node) handleByID(w http.ResponseWriter, r *http.Request) {
	node, _ := simd.SplitJobID(r.PathValue("id"))
	p := n.peers[node]
	if node == "" || node == n.cfg.Self || p == nil || r.Header.Get(ForwardedHeader) != "" {
		n.inner.ServeHTTP(w, r)
		return
	}
	var lastErr error
	for attempt := 0; attempt <= forwardRetries; attempt++ {
		if attempt > 0 {
			if sleepBackoff(r.Context(), n.cfg.retryBackoff) != nil {
				return
			}
		}
		resp, err := n.roundTrip(r.Context(), p, r.Method, r.URL.RequestURI(), nil, true)
		if err != nil {
			if r.Context().Err() != nil {
				return
			}
			lastErr = err
			continue
		}
		defer resp.Body.Close()
		for _, k := range []string{"Content-Type", "Retry-After"} {
			if v := resp.Header.Get(k); v != "" {
				w.Header().Set(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		return
	}
	w.Header().Set(ForwardPeerHeader, node)
	simd.WriteError(w, http.StatusBadGateway,
		fmt.Errorf("cluster: job owner %q unreachable: %v", node, lastErr))
}
