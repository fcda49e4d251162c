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

// Client talks to one fvpd server through http.DefaultClient.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
}

// New returns a client for the server at base.
func New(base string) *Client {
	return &Client{BaseURL: base}
}

// do issues a request and decodes the JSON response into out, converting
// a non-2xx response into *QuotaExceededError (429) or *APIError.
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
	resp, err := http.DefaultClient.Do(req)
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
		return apiErr
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Cluster fetches the server's ring membership and per-peer forwarding
// health (GET /v1/cluster).
func (c *Client) Cluster(ctx context.Context) (cluster.Status, error) {
	var st cluster.Status
	err := c.do(ctx, http.MethodGet, "/v1/cluster", nil, &st)
	return st, err
}

// Run submits one spec in wait mode, attributed to tenant ("" is the
// anonymous tenant), and returns its metrics: the remote equivalent of
// fvp.RunContext. A 429 (the tenant's quota) surfaces as
// *QuotaExceededError, any other non-2xx answer as *APIError.
func (c *Client) Run(ctx context.Context, spec fvp.RunSpec, tenant string) (fvp.Metrics, error) {
	var resp simd.SubmitResponse
	req := simd.RunRequest{RunSpec: spec, Tenant: tenant}
	if err := c.do(ctx, http.MethodPost, "/v1/runs?wait=1", req, &resp); err != nil {
		return fvp.Metrics{}, err
	}
	if len(resp.Jobs) != 1 {
		return fvp.Metrics{}, fmt.Errorf("fvpd: %d jobs answered one run", len(resp.Jobs))
	}
	st := resp.Jobs[0]
	if st.State != simd.StateDone || st.Metrics == nil {
		return fvp.Metrics{}, fmt.Errorf("fvpd: job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	var m fvp.Metrics
	if err := json.Unmarshal(st.Metrics, &m); err != nil {
		return fvp.Metrics{}, fmt.Errorf("fvpd: job %s: undecodable metrics: %w", st.ID, err)
	}
	return m, nil
}

// MetricsText fetches the server's Prometheus text exposition.
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
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
