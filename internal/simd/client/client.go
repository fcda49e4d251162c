// Package client is the Go client for the fvpd batch-simulation service
// (internal/simd). cmd/fvpsim's -server mode uses it to submit runs to a
// shared daemon instead of simulating locally.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"fvp"
	"fvp/internal/cluster"
	"fvp/internal/simd"
)

// APIError is a non-2xx response from the service.
type APIError struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// Message is the service's error text.
	Message string
	// RetryAfter is the parsed Retry-After hint on 503s (0 if absent).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("fvpd: %s (HTTP %d)", e.Message, e.StatusCode)
}

// Temporary reports whether the request may succeed if retried (the
// service signaled backpressure, not rejection).
func (e *APIError) Temporary() bool { return e.StatusCode == http.StatusServiceUnavailable }

// QuotaExceededError is a 429: per-tenant admission control refused the
// submit. Unlike global backpressure (503), it names the throttled
// tenant — other tenants' submits would still be admitted.
type QuotaExceededError struct {
	// Tenant is the tenant the quota applied to.
	Tenant string
	// RetryAfter is the server's earliest-retry hint.
	RetryAfter time.Duration
	// Message is the service's error text.
	Message string
}

func (e *QuotaExceededError) Error() string {
	return fmt.Sprintf("fvpd: tenant %q over quota, retry in %s: %s", e.Tenant, e.RetryAfter, e.Message)
}

// Temporary reports that the submit may succeed once tokens refill.
func (e *QuotaExceededError) Temporary() bool { return true }

// ForwardedError is a 502 from a cluster node that could not reach the
// peer owning the addressed job: the job may exist, but its owner is
// down. Retrying asks the owner again; it does not reroute.
type ForwardedError struct {
	// Peer is the unreachable owner node's ID.
	Peer string
	// Message is the routing node's error text.
	Message string
}

func (e *ForwardedError) Error() string {
	return fmt.Sprintf("fvpd: job owner %q unreachable: %s", e.Peer, e.Message)
}

// Temporary reports that the owner may come back.
func (e *ForwardedError) Temporary() bool { return true }

// Client talks to one fvpd server.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
}

// New returns a client for the server at base.
func New(base string) *Client {
	return &Client{BaseURL: base}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do issues a request and decodes the JSON response into out (unless
// out is nil), converting non-2xx responses into *APIError.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		apiErr := &APIError{StatusCode: resp.StatusCode}
		var envelope struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&envelope) == nil && envelope.Error != "" {
			apiErr.Message = envelope.Error
		} else {
			apiErr.Message = resp.Status
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			var secs int
			if _, err := fmt.Sscanf(ra, "%d", &secs); err == nil {
				apiErr.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			return &QuotaExceededError{
				Tenant:     resp.Header.Get("X-Fvpd-Tenant"),
				RetryAfter: apiErr.RetryAfter,
				Message:    apiErr.Message,
			}
		}
		if peer := resp.Header.Get(cluster.ForwardPeerHeader); resp.StatusCode == http.StatusBadGateway && peer != "" {
			return &ForwardedError{Peer: peer, Message: apiErr.Message}
		}
		return apiErr
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// SubmitOptions is the options-struct form of Submit's knobs.
type SubmitOptions struct {
	// Wait blocks until every job finishes; the returned statuses then
	// carry results. Canceling ctx mid-wait disconnects, which cancels
	// the server-side jobs.
	Wait bool
	// Tenant attributes the runs to a tenant for admission control. It
	// is applied to every request that doesn't already name one.
	Tenant string
}

// Submit sends a batch of runs; see SubmitWith for the full option set.
func (c *Client) Submit(ctx context.Context, reqs []simd.RunRequest, wait bool) ([]simd.JobStatus, error) {
	return c.SubmitWith(ctx, reqs, SubmitOptions{Wait: wait})
}

// SubmitWith sends a batch of runs under the given options. A 429
// (per-tenant quota) surfaces as *QuotaExceededError.
func (c *Client) SubmitWith(ctx context.Context, reqs []simd.RunRequest, opts SubmitOptions) ([]simd.JobStatus, error) {
	if opts.Tenant != "" {
		stamped := make([]simd.RunRequest, len(reqs))
		copy(stamped, reqs)
		for i := range stamped {
			if stamped[i].Tenant == "" {
				stamped[i].Tenant = opts.Tenant
			}
		}
		reqs = stamped
	}
	path := "/v1/runs"
	if opts.Wait {
		path += "?wait=1"
	}
	var resp simd.SubmitResponse
	if err := c.do(ctx, http.MethodPost, path, struct {
		Runs []simd.RunRequest `json:"runs"`
	}{reqs}, &resp); err != nil {
		return nil, err
	}
	return resp.Jobs, nil
}

// Cluster fetches the server's ring membership and per-peer forwarding
// health (GET /v1/cluster).
func (c *Client) Cluster(ctx context.Context) (cluster.Status, error) {
	var st cluster.Status
	err := c.do(ctx, http.MethodGet, "/v1/cluster", nil, &st)
	return st, err
}

// Run submits one spec in wait mode and returns its metrics — the remote
// equivalent of fvp.RunContext.
func (c *Client) Run(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error) {
	return c.RunWith(ctx, spec, SubmitOptions{})
}

// RunWith is Run under submit options; Wait is implied.
func (c *Client) RunWith(ctx context.Context, spec fvp.RunSpec, opts SubmitOptions) (fvp.Metrics, error) {
	opts.Wait = true
	jobs, err := c.SubmitWith(ctx, []simd.RunRequest{{RunSpec: spec}}, opts)
	if err != nil {
		return fvp.Metrics{}, err
	}
	st := jobs[0]
	if st.State != simd.StateDone || st.Metrics == nil {
		return fvp.Metrics{}, fmt.Errorf("fvpd: job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	var m fvp.Metrics
	if err := json.Unmarshal(st.Metrics, &m); err != nil {
		return fvp.Metrics{}, fmt.Errorf("fvpd: job %s: undecodable metrics: %w", st.ID, err)
	}
	return m, nil
}

// Get fetches one job's status.
func (c *Client) Get(ctx context.Context, id string) (simd.JobStatus, error) {
	var st simd.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/runs/"+id, nil, &st)
	return st, err
}

// Poll polls a job until it reaches a terminal state or ctx fires.
func (c *Client) Poll(ctx context.Context, id string, interval time.Duration) (simd.JobStatus, error) {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		st, err := c.Get(ctx, id)
		if err != nil {
			return st, err
		}
		if st.State != simd.StateQueued && st.State != simd.StateRunning {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-t.C:
		}
	}
}

// Cancel cancels one job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/runs/"+id, nil, nil)
}

// List fetches the server's job listing, optionally filtered to one state
// ("queued", "running", "done", "failed", "canceled"; "" lists all).
func (c *Client) List(ctx context.Context, state string) ([]simd.JobStatus, error) {
	path := "/v1/runs"
	if state != "" {
		path += "?state=" + url.QueryEscape(state)
	}
	var out simd.JobList
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// Trace fetches a job's pipeline-trace artifact (submit the run with
// Trace set). The bytes are chrome://tracing / Perfetto JSON.
func (c *Client) Trace(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/runs/"+id+"/trace", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &APIError{StatusCode: resp.StatusCode, Message: string(b)}
	}
	return b, nil
}

// Workloads lists the server's study list.
func (c *Client) Workloads(ctx context.Context) ([]fvp.WorkloadInfo, error) {
	var out []fvp.WorkloadInfo
	err := c.do(ctx, http.MethodGet, "/v1/workloads", nil, &out)
	return out, err
}

// Predictors lists the server's predictor configurations.
func (c *Client) Predictors(ctx context.Context) ([]simd.PredictorInfo, error) {
	var out []simd.PredictorInfo
	err := c.do(ctx, http.MethodGet, "/v1/predictors", nil, &out)
	return out, err
}

// Healthz checks server liveness.
func (c *Client) Healthz(ctx context.Context) (simd.Health, error) {
	var h simd.Health
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// MetricsText fetches the server's Prometheus text exposition.
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", &APIError{StatusCode: resp.StatusCode, Message: string(b)}
	}
	return string(b), nil
}
