package cluster

import (
	"context"
	"errors"
	"sync"
	"time"
)

// errBreakerOpen short-circuits a forward attempt without touching the
// network: the peer's circuit breaker is open and the cooldown has not
// elapsed. Callers treat it like any other transport failure (fall back
// to local execution for submits, 502 for by-ID routing).
var errBreakerOpen = errors.New("cluster: peer circuit breaker open")

// breaker states. closed = forwarding normally; open = peer presumed
// down, fail fast; halfOpen = cooldown elapsed, one probe in flight.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "ok"
	}
}

// peer is one remote cluster member: its address, a circuit breaker,
// and forwarding counters. Only transport-level failures (dial refused,
// connection reset, timeout) count against the breaker — any HTTP
// response, including a 429 or 503, proves the peer is alive and is
// propagated to the client rather than absorbed. Context cancellations
// caused by the submitting client hanging up are not failures either;
// they say nothing about the peer.
type peer struct {
	id  string
	url string

	mu       sync.Mutex
	state    breakerState
	fails    int       // consecutive transport failures while closed
	openedAt time.Time // when the breaker last opened

	inflight  int    // forwards currently outstanding
	forwarded uint64 // forwards that got an HTTP response back
	failures  uint64 // forward attempts that failed at the transport
	lastErr   string // most recent transport error, for /v1/cluster
}

// begin gates a forward attempt: it returns errBreakerOpen while the
// breaker is open and inside its cooldown, and otherwise registers the
// attempt (moving an expired open breaker to half-open so exactly this
// attempt serves as the probe).
func (p *peer) begin(now time.Time) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state == breakerOpen {
		if now.Sub(p.openedAt) < breakerCooldown {
			return errBreakerOpen
		}
		p.state = breakerHalfOpen
	}
	p.inflight++
	return nil
}

// done records the attempt's outcome. transportErr is non-nil only for
// transport-level failures; canceled marks failures caused by the
// caller's own context, which are neutral (the attempt is unwound
// without moving the breaker either way).
func (p *peer) done(transportErr error, canceled bool, now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.inflight--
	if canceled {
		if p.state == breakerHalfOpen {
			p.state = breakerOpen // the probe resolved nothing; stay open
		}
		return
	}
	if transportErr == nil {
		p.state = breakerClosed
		p.fails = 0
		return
	}
	p.failures++
	p.lastErr = transportErr.Error()
	if p.state == breakerHalfOpen {
		p.state = breakerOpen
		p.openedAt = now
		return
	}
	p.fails++
	if p.fails >= breakerThreshold {
		p.state = breakerOpen
		p.openedAt = now
		p.fails = 0
	}
}

// responded counts a completed HTTP round trip (any status code).
func (p *peer) responded() {
	p.mu.Lock()
	p.forwarded++
	p.mu.Unlock()
}

// snapshot returns the peer's row for /v1/cluster and /v1/metrics.
func (p *peer) snapshot() PeerStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PeerStatus{
		ID:            p.id,
		URL:           p.url,
		Health:        p.state.String(),
		Inflight:      p.inflight,
		Forwarded:     p.forwarded,
		ForwardErrors: p.failures,
		LastError:     p.lastErr,
	}
}

// sleepBackoff waits one retry backoff or until ctx fires.
func sleepBackoff(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
