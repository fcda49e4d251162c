package simd

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fvp"
)

func batchSpec(insts uint64) fvp.RunSpec {
	return fvp.RunSpec{Workload: "omnetpp", Predictor: "fvp", WarmupInsts: 100, MeasureInsts: insts}
}

func instantStub(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error) {
	return fvp.Metrics{IPC: 1, Cycles: 1, Insts: 1}, nil
}

// TestBatcherCoalescesConcurrentSubmits: N concurrent Submit
// callers with BatchMax = N land in one flush — the fvpd_batch_size
// histogram records a single observation of N — and every caller gets
// its own admitted status back.
func TestBatcherCoalescesConcurrentSubmits(t *testing.T) {
	const n = 8
	svc := New(Config{
		Workers: 2, QueueSize: 2 * n, Run: instantStub,
		// A window the test never waits out: the flush must come from the
		// BatchMax trigger when the n-th caller arrives.
		BatchWindow: time.Minute, BatchMax: n,
	})
	defer svc.Close()

	var wg sync.WaitGroup
	statuses := make([]JobStatus, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sts, err := submit(svc, RunRequest{RunSpec: batchSpec(uint64(1000 + i))})
			if err != nil {
				errs[i] = err
				return
			}
			statuses[i] = sts[0]
		}(i)
	}
	wg.Wait()

	ids := make(map[string]bool)
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("submit %d: %v", i, errs[i])
		}
		if statuses[i].ID == "" || ids[statuses[i].ID] {
			t.Fatalf("submit %d: bad or duplicate job ID %q", i, statuses[i].ID)
		}
		ids[statuses[i].ID] = true
	}
	snap := svc.batchSizes.Snapshot()
	if snap.Count != 1 || snap.Sum != n {
		t.Errorf("batch-size histogram: %d flushes totaling %g requests, want one flush of %d", snap.Count, snap.Sum, n)
	}
	waitFor(t, func() bool { return svc.Snapshot().JobsDone == n })
}

// TestBatcherDrainFlushesPending: callers parked mid-window when Drain
// begins must get a real admit decision and their jobs must complete —
// shutdown flushes the window instead of stranding it.
func TestBatcherDrainFlushesPending(t *testing.T) {
	svc := New(Config{
		Workers: 1, QueueSize: 8, Run: instantStub,
		// Neither trigger can fire on its own: only the drain flush can
		// release these callers.
		BatchWindow: time.Hour, BatchMax: 1000,
	})

	const n = 2
	var wg sync.WaitGroup
	statuses := make([]JobStatus, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sts, err := submit(svc, RunRequest{RunSpec: batchSpec(uint64(2000 + i))})
			if err != nil {
				errs[i] = err
				return
			}
			statuses[i] = sts[0]
		}(i)
	}
	waitFor(t, func() bool { return svc.batch.Pending() == n })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("parked submit %d rejected at drain: %v", i, errs[i])
		}
		final, ok := svc.Get(statuses[i].ID)
		if !ok || final.State != StateDone {
			t.Errorf("parked submit %d: state %s after drain, want done", i, final.State)
		}
	}
}

// TestBatchMixedTenantQuotaIsolation: when an over-quota tenant's group
// shares a flush with a healthy tenant's, the merged batch is rejected
// all-or-nothing, then the per-group fallback admits the healthy tenant
// and refuses only the flooder — none of the flooder's runs start.
func TestBatchMixedTenantQuotaIsolation(t *testing.T) {
	svc := New(Config{
		Workers: 1, QueueSize: 8, Run: instantStub,
		BatchWindow: time.Minute, BatchMax: 3,
		Tenants: TenantConfig{Quotas: map[string]TenantQuota{
			"flood": {Rate: 0.001, Burst: 1},
		}},
	})
	defer svc.Close()

	var wg sync.WaitGroup
	var floodErr, okErr error
	var okStatuses []JobStatus
	wg.Add(2)
	go func() {
		defer wg.Done()
		// Two unique specs against a burst of 1: over quota on its own,
		// and poison for any merged batch it rides in.
		_, floodErr = submit(svc,
			RunRequest{Tenant: "flood", RunSpec: batchSpec(3000)},
			RunRequest{Tenant: "flood", RunSpec: batchSpec(3001)})
	}()
	go func() {
		defer wg.Done()
		okStatuses, okErr = submit(svc, RunRequest{Tenant: "ok", RunSpec: batchSpec(4000)})
	}()
	wg.Wait()

	var qe *QuotaError
	if !errors.As(floodErr, &qe) || qe.Tenant != "flood" {
		t.Fatalf("flood group error = %v, want *QuotaError for tenant flood", floodErr)
	}
	if okErr != nil {
		t.Fatalf("healthy tenant poisoned by co-batched flooder: %v", okErr)
	}
	if len(okStatuses) != 1 || okStatuses[0].Tenant != "ok" {
		t.Fatalf("healthy tenant statuses = %+v", okStatuses)
	}
	waitFor(t, func() bool { return svc.Snapshot().JobsDone == 1 })
	// All-or-nothing held within the flooder's group: neither of its
	// specs was admitted, so the only simulation ever started is the
	// healthy tenant's.
	if snap := svc.Snapshot(); snap.CacheMisses != 1 {
		t.Errorf("cache misses = %d, want 1 (no flood run admitted)", snap.CacheMisses)
	}
}

// TestBatchedSubmitMatchesUnbatched: the micro-batcher is a transparent
// fast path — dedup, cache hits, and per-request statuses come out the
// same whether requests were coalesced or submitted one at a time.
func TestBatchedSubmitMatchesUnbatched(t *testing.T) {
	run := func(cfg Config) (map[string]int, uint64, uint64) {
		cfg.Workers, cfg.QueueSize, cfg.Run = 2, 64, instantStub
		svc := New(cfg)
		const n = 12
		var wg sync.WaitGroup
		states := make([]State, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// Three unique specs, aliased four ways each.
				sts, err := submit(svc, RunRequest{RunSpec: batchSpec(uint64(5000 + i%3))})
				if err != nil {
					t.Errorf("submit %d: %v", i, err)
					return
				}
				final, err := svc.Wait(context.Background(), sts[0].ID)
				if err != nil {
					t.Errorf("wait %d: %v", i, err)
					return
				}
				states[i] = final.State
			}(i)
		}
		wg.Wait()
		byState := make(map[string]int)
		for _, st := range states {
			byState[string(st)]++
		}
		snap := svc.Snapshot()
		svc.Close()
		return byState, snap.CacheMisses, snap.JobsDone
	}

	unbatched, umisses, udone := run(Config{})
	batched, bmisses, bdone := run(Config{BatchWindow: 5 * time.Millisecond, BatchMax: 6})
	if fmt.Sprint(unbatched) != fmt.Sprint(batched) || umisses != bmisses || udone != bdone {
		t.Errorf("batched run diverged: states %v misses %d done %d, unbatched states %v misses %d done %d",
			batched, bmisses, bdone, unbatched, umisses, udone)
	}
	if umisses != 3 {
		t.Errorf("unique specs simulated = %d, want 3", umisses)
	}
}
