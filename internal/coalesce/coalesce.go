// Package coalesce merges concurrent callers' request groups into one
// downstream call per time window. fvpd uses it twice: the service's edge
// micro-batcher turns a flood of small submits into one admission pass and
// one durable append per window, and the cluster router turns a flood of
// forwards to one peer into one HTTP round trip per window.
package coalesce

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Batcher parks each caller's group for up to Window after the first
// pending one arrived (or until Max requests pend) and flushes the window
// as a single Submit. Coalescing is a fast path, never a semantic: every
// caller gets its own slice of the merged results, and when the merged
// call fails with an error Split accepts, each group is re-submitted alone
// so one rider's rejection cannot poison the strangers sharing its window.
//
// The exported fields configure the batcher and must be set before the
// first Do.
type Batcher[Req, Res any] struct {
	// Window bounds how long the first pending group waits for company.
	Window time.Duration
	// Max flushes the window early once this many requests pend.
	Max int
	// Submit sends one batch downstream: a lone group, a merged window,
	// or one group of a split retry. It must return one result per
	// request on success.
	Submit func(reqs []Req) ([]Res, error)
	// Split reports whether a failed merged batch is retried group by
	// group (a refusal that may belong to one rider) rather than handed
	// to every rider as is (a failure that would hit each of them alike).
	// Nil splits on every error.
	Split func(err error) bool
	// OnFlush, if set, observes the request count of every flush.
	OnFlush func(n int)

	mu      sync.Mutex
	pending []*group[Req, Res]
	nreq    int
	timer   *time.Timer
	closed  bool
}

// group is one caller's request slice riding a flush, with the channel
// its verdict comes back on.
type group[Req, Res any] struct {
	reqs []Req
	ch   chan result[Res]
}

type result[Res any] struct {
	res []Res
	err error
}

// Do parks reqs until their flush completes and returns this group's
// share of the outcome. The first group into an empty window arms the
// flush timer; reaching Max flushes immediately on the caller's
// goroutine. ctx gates only this caller's wait: the flush itself carries
// other callers' groups and is never canceled by one of them. After
// Close, Do submits directly.
func (b *Batcher[Req, Res]) Do(ctx context.Context, reqs []Req) ([]Res, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return b.Submit(reqs)
	}
	g := &group[Req, Res]{reqs: reqs, ch: make(chan result[Res], 1)}
	b.pending = append(b.pending, g)
	b.nreq += len(reqs)
	var groups []*group[Req, Res]
	if b.nreq >= b.Max {
		groups = b.takeLocked()
	} else if len(b.pending) == 1 {
		b.timer = time.AfterFunc(b.Window, b.flushTimer)
	}
	b.mu.Unlock()
	b.flush(groups)
	select {
	case r := <-g.ch:
		return r.res, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Pending reports how many groups are parked in the current window.
func (b *Batcher[Req, Res]) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending)
}

// Close flushes the pending window synchronously; later Do calls submit
// directly. A caller parked mid-window at shutdown thus always gets a
// decision rather than hanging.
func (b *Batcher[Req, Res]) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	groups := b.takeLocked()
	b.mu.Unlock()
	b.flush(groups)
}

// takeLocked claims the pending window for a flush and disarms its timer.
func (b *Batcher[Req, Res]) takeLocked() []*group[Req, Res] {
	groups := b.pending
	b.pending = nil
	b.nreq = 0
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	return groups
}

func (b *Batcher[Req, Res]) flushTimer() {
	b.mu.Lock()
	groups := b.takeLocked()
	b.mu.Unlock()
	b.flush(groups)
}

// flush submits the window's groups as one merged batch and slices the
// results back per group, splitting or broadcasting a merged failure as
// Split decides.
func (b *Batcher[Req, Res]) flush(groups []*group[Req, Res]) {
	if len(groups) == 0 {
		return
	}
	total := 0
	for _, g := range groups {
		total += len(g.reqs)
	}
	if b.OnFlush != nil {
		b.OnFlush(total)
	}
	if len(groups) == 1 {
		res, err := b.Submit(groups[0].reqs)
		groups[0].ch <- result[Res]{res, err}
		return
	}
	merged := make([]Req, 0, total)
	for _, g := range groups {
		merged = append(merged, g.reqs...)
	}
	res, err := b.Submit(merged)
	if err == nil && len(res) != total {
		err = fmt.Errorf("coalesce: %d results for %d merged requests", len(res), total)
	}
	switch {
	case err == nil:
		off := 0
		for _, g := range groups {
			g.ch <- result[Res]{res: res[off : off+len(g.reqs)]}
			off += len(g.reqs)
		}
	case b.Split == nil || b.Split(err):
		for _, g := range groups {
			res, err := b.Submit(g.reqs)
			g.ch <- result[Res]{res, err}
		}
	default:
		for _, g := range groups {
			g.ch <- result[Res]{err: err}
		}
	}
}
