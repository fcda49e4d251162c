package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"

	"fvp"
	"fvp/internal/cluster"
	"fvp/internal/simd"
	"fvp/internal/store"
	"fvp/internal/store/disk"
)

// node is one in-process fvpd, wired as cmd/fvpd wires -data-dir and
// -peers: disk stores, a simd.Service, its cluster router, and a loopback
// HTTP server. The micro-batcher and replication keep their off defaults.
type node struct {
	srv  *httptest.Server
	svc  *simd.Service
	jobs store.JobStore
}

// startNodes starts one node per id with workers simulation workers each.
// More than one id forms a cluster with every node as a peer.
func startNodes(e *env, ids []string, workers int) ([]*node, error) {
	nodes := make([]*node, len(ids))
	peers := map[string]string{}
	for i, id := range ids {
		// Peers name each other by URL, so every listener exists before
		// any node is built; the servers start once their handlers are set.
		srv := httptest.NewUnstartedServer(nil)
		nodes[i] = &node{srv: srv}
		peers[id] = "http://" + srv.Listener.Addr().String()
	}
	for i, id := range ids {
		stores, err := disk.Open(filepath.Join(e.workDir, "node-"+id), disk.Options{CacheEntries: simd.DefaultCacheSize})
		if err != nil {
			closeNodes(nodes)
			return nil, err
		}
		cfg := simd.Config{Workers: workers, Stores: stores}
		ccfg := cluster.Config{}
		if len(ids) > 1 {
			cfg.NodeID, ccfg.Self, ccfg.Peers = id, id, peers
		}
		if e.tr != nil {
			cfg.Stores, cfg.Run = e.tr.tracedStores(stores), e.tr.runFunc()
		}
		nodes[i].jobs = cfg.Stores.Jobs
		nodes[i].svc = simd.New(cfg)
		ccfg.Service = nodes[i].svc
		router, err := cluster.New(ccfg)
		if err != nil {
			closeNodes(nodes)
			return nil, err
		}
		h := router.Handler()
		if e.tr != nil {
			// Clients enter at the first node; the others only serve the
			// requests it forwards to them as owner.
			name := "http.handler"
			if i > 0 {
				name = "http.owner"
			}
			h = e.tr.handler(name, h)
		}
		nodes[i].srv.Config.Handler = h
	}
	for _, n := range nodes {
		n.srv.Start()
	}
	return nodes, nil
}

func (n *node) url() string { return "http://" + n.srv.Listener.Addr().String() }

// closeNodes stops the servers, waiting out in-flight requests, then the
// services, which close their stores.
func closeNodes(nodes []*node) {
	for _, n := range nodes {
		if n == nil {
			continue
		}
		n.srv.Close()
		if n.svc != nil {
			n.svc.Close()
		}
	}
}

func appendsOf(nodes []*node) func() uint64 {
	return func() uint64 {
		var total uint64
		for _, n := range nodes {
			total += n.jobs.Stats().Appends
		}
		return total
	}
}

// serviceSystem drives nodes[0] with two closed-loop clients, each posting
// a wait-mode submit and waiting for its result before the next, over at
// most two connections.
func serviceSystem(nodes []*node) *system {
	tr := &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2}
	hc := &http.Client{Transport: tr}
	url := nodes[0].url() + "/v1/runs?wait=1"
	return &system{
		clients: 2,
		do: func(ctx context.Context, in *input) (reply, error) {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(in.body))
			if err != nil {
				return reply{}, err
			}
			req.Header.Set("Content-Type", "application/json")
			if id := parentOf(ctx); id != 0 {
				req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
			}
			resp, err := hc.Do(req)
			if err != nil {
				return reply{}, err
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return reply{}, err
			}
			if resp.StatusCode != http.StatusOK {
				return reply{}, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
			}
			return reply{body: body}, nil
		},
		check:   checkResponse,
		appends: appendsOf(nodes),
		close: func() {
			tr.CloseIdleConnections()
			closeNodes(nodes)
		},
	}
}

// checkResponse checks a wait-mode submit response: one job, done, whose
// metrics have the expected digest.
func checkResponse(r reply, want string) (bool, float64, error) {
	var sr struct {
		Jobs []struct {
			State   simd.State      `json:"state"`
			Metrics json.RawMessage `json:"metrics"`
			Error   string          `json:"error"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(r.body, &sr); err != nil {
		return false, 0, err
	}
	if len(sr.Jobs) != 1 {
		return false, 0, fmt.Errorf("response has %d jobs, want 1", len(sr.Jobs))
	}
	j := sr.Jobs[0]
	if j.State != simd.StateDone {
		return false, 0, fmt.Errorf("job %s: %s", j.State, j.Error)
	}
	var m fvp.Metrics
	if err := json.Unmarshal(j.Metrics, &m); err != nil {
		return false, 0, err
	}
	return digestOf(m) == want, m.IPC, nil
}

// startUnique is one node with two workers: fvpd -data-dir on this
// host's two CPUs. Set-up ends with a warm-up pass through the service.
func startUnique(ctx context.Context, e *env, ins []input) (*system, error) {
	nodes, err := startNodes(e, []string{""}, 2)
	if err != nil {
		return nil, err
	}
	sys := serviceSystem(nodes)
	if err := warmUp(ctx, sys, ins); err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

// startCached is a two-node cluster with one worker per node. Set-up runs
// every input once through node a, which forwards the half that node b
// owns, and checks each result; the timed phase re-submits them.
func startCached(ctx context.Context, e *env, ins []input) (*system, error) {
	nodes, err := startNodes(e, []string{"a", "b"}, 1)
	if err != nil {
		return nil, err
	}
	sys := serviceSystem(nodes)
	var next int
	st := drive(ctx, sys, ins, e.expected, newFeeder(ins, true, 0, 0, &next), nil)
	if err := ctx.Err(); err != nil || st.failed > 0 {
		sys.close()
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("pre-running the cached specs: %s", st.errs[0])
	}
	return sys, nil
}
