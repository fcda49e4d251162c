package coalesce

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echo answers each request with itself; calls counts Submit invocations.
type echo struct {
	calls atomic.Int64
	fail  func(reqs []int) error
}

func (e *echo) submit(reqs []int) ([]int, error) {
	e.calls.Add(1)
	if e.fail != nil {
		if err := e.fail(reqs); err != nil {
			return nil, err
		}
	}
	return append([]int(nil), reqs...), nil
}

// doAll runs one Do per group concurrently and returns each outcome.
func doAll(b *Batcher[int, int], groups [][]int) ([][]int, []error) {
	res := make([][]int, len(groups))
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for i, g := range groups {
		wg.Add(1)
		go func(i int, g []int) {
			defer wg.Done()
			res[i], errs[i] = b.Do(context.Background(), g)
		}(i, g)
	}
	wg.Wait()
	return res, errs
}

// A full window flushes as one Submit and every caller gets back exactly
// its own slice.
func TestMergedFlushSlicesPerGroup(t *testing.T) {
	e := &echo{}
	var flushed []int
	b := &Batcher[int, int]{
		Window: time.Hour, Max: 4, Submit: e.submit,
		OnFlush: func(n int) { flushed = append(flushed, n) },
	}
	groups := [][]int{{1}, {2, 3}, {4}}
	res, errs := doAll(b, groups)
	for i := range groups {
		if errs[i] != nil || len(res[i]) != len(groups[i]) || res[i][0] != groups[i][0] {
			t.Errorf("group %d: got %v, %v; want %v", i, res[i], errs[i], groups[i])
		}
	}
	if e.calls.Load() != 1 || len(flushed) != 1 || flushed[0] != 4 {
		t.Errorf("%d submits, flushes %v; want one flush of 4", e.calls.Load(), flushed)
	}
}

// A merged failure Split accepts is retried group by group, so only the
// group that caused it sees it.
func TestSplitRetriesPerGroup(t *testing.T) {
	bad := errors.New("refused")
	e := &echo{fail: func(reqs []int) error {
		for _, r := range reqs {
			if r < 0 {
				return bad
			}
		}
		return nil
	}}
	b := &Batcher[int, int]{Window: time.Hour, Max: 3, Submit: e.submit}
	res, errs := doAll(b, [][]int{{-1}, {2}, {3}})
	if !errors.Is(errs[0], bad) {
		t.Errorf("bad group: err %v, want %v", errs[0], bad)
	}
	for i := 1; i < 3; i++ {
		if errs[i] != nil || len(res[i]) != 1 {
			t.Errorf("group %d poisoned by a co-batched refusal: %v, %v", i, res[i], errs[i])
		}
	}
	if got := e.calls.Load(); got != 4 {
		t.Errorf("%d submits, want 1 merged + 3 per-group", got)
	}
}

// A merged failure Split rejects goes back to every rider without retry.
func TestNoSplitBroadcastsError(t *testing.T) {
	down := errors.New("transport down")
	e := &echo{fail: func([]int) error { return down }}
	b := &Batcher[int, int]{
		Window: time.Hour, Max: 2, Submit: e.submit,
		Split: func(err error) bool { return !errors.Is(err, down) },
	}
	_, errs := doAll(b, [][]int{{1}, {2}})
	for i, err := range errs {
		if !errors.Is(err, down) {
			t.Errorf("group %d: err %v, want %v", i, err, down)
		}
	}
	if got := e.calls.Load(); got != 1 {
		t.Errorf("%d submits, want the merged one only", got)
	}
}

// The timer flushes a window that never fills, and Close flushes one the
// timer would never reach; after Close, Do submits directly.
func TestTimerAndCloseFlush(t *testing.T) {
	e := &echo{}
	b := &Batcher[int, int]{Window: time.Millisecond, Max: 100, Submit: e.submit}
	if res, err := b.Do(context.Background(), []int{7}); err != nil || res[0] != 7 {
		t.Fatalf("timer flush: %v, %v", res, err)
	}

	b = &Batcher[int, int]{Window: time.Hour, Max: 100, Submit: e.submit}
	done := make(chan error, 1)
	go func() {
		_, err := b.Do(context.Background(), []int{8})
		done <- err
	}()
	for b.Pending() != 1 {
		time.Sleep(time.Millisecond)
	}
	b.Close()
	if err := <-done; err != nil {
		t.Fatalf("close flush: %v", err)
	}
	if res, err := b.Do(context.Background(), []int{9}); err != nil || res[0] != 9 {
		t.Fatalf("after close: %v, %v", res, err)
	}
}

// A canceled caller stops waiting; the window still flushes for the rest.
func TestDoHonorsContext(t *testing.T) {
	e := &echo{}
	b := &Batcher[int, int]{Window: time.Hour, Max: 100, Submit: e.submit}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Do(ctx, []int{1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Do: err %v", err)
	}
	b.Close()
	if got := e.calls.Load(); got != 1 {
		t.Errorf("abandoned group was not flushed at close: %d submits", got)
	}
}
