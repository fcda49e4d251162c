package simd

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fvp"
)

// fastSpec is a real simulation kept short enough for unit tests.
func fastSpec() fvp.RunSpec {
	return fvp.RunSpec{Workload: "omnetpp", Predictor: fvp.PredFVP, WarmupInsts: 1_000, MeasureInsts: 2_000}
}

// submit keys reqs, as ReadSubmit keys a body's requests, and submits
// them.
func submit(svc *Service, reqs ...RunRequest) ([]JobStatus, error) {
	ks, err := KeyRuns(reqs)
	if err != nil {
		return nil, err
	}
	return svc.Submit(ks)
}

// submitOne submits one request and returns its job's status.
func submitOne(svc *Service, req RunRequest) (JobStatus, error) {
	sts, err := submit(svc, req)
	if err != nil {
		return JobStatus{}, err
	}
	return sts[0], nil
}

// metricsOf decodes a done job's result, failing the test when it has none.
func metricsOf(t testing.TB, st JobStatus) fvp.Metrics {
	t.Helper()
	var m fvp.Metrics
	if err := json.Unmarshal(st.Metrics, &m); err != nil {
		t.Fatalf("job %s (%s): metrics %q: %v", st.ID, st.State, st.Metrics, err)
	}
	return m
}

func TestSpecKeyNormalization(t *testing.T) {
	implicit := fvp.RunSpec{Workload: "omnetpp"}
	explicit := fvp.RunSpec{
		Workload: "omnetpp", Machine: fvp.Skylake, Predictor: fvp.PredNone,
		WarmupInsts: 100_000, MeasureInsts: 300_000,
	}
	if specKey(implicit) != specKey(explicit) {
		t.Error("spec with implicit defaults must hash equal to its explicit form")
	}
	other := explicit
	other.Predictor = fvp.PredFVP
	if specKey(explicit) == specKey(other) {
		t.Error("different predictors must hash differently")
	}
}

// TestSubmitServesSecondFromCache is the cache-hit fast path: an
// identical spec submitted after completion is terminal at submit time.
func TestSubmitServesSecondFromCache(t *testing.T) {
	svc := New(Config{Workers: 2})
	defer svc.Close()

	first, err := submitOne(svc, RunRequest{RunSpec: fastSpec()})
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.Wait(context.Background(), first.ID)
	if err != nil || st.State != StateDone {
		t.Fatalf("first run: state=%s err=%v", st.State, err)
	}
	if st.Cached {
		t.Error("first run must not be cached")
	}

	second, err := submitOne(svc, RunRequest{RunSpec: fastSpec()})
	if err != nil {
		t.Fatal(err)
	}
	if second.State != StateDone || !second.Cached {
		t.Fatalf("second run should be served from cache at submit time, got %+v", second)
	}
	if metricsOf(t, second).IPC != metricsOf(t, st).IPC {
		t.Error("cached metrics must match the simulated result")
	}
	snap := svc.Snapshot()
	if snap.CacheHits != 1 || snap.CacheMisses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", snap.CacheHits, snap.CacheMisses)
	}
}

// TestSingleFlightDedup hammers one RunSpec from 32 goroutines and
// asserts exactly one simulation executed — the rest ride the in-flight
// leader or the result cache.
func TestSingleFlightDedup(t *testing.T) {
	var sims atomic.Int64
	svc := New(Config{
		Workers: 4,
		Run: func(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error) {
			sims.Add(1)
			select {
			case <-time.After(100 * time.Millisecond):
			case <-ctx.Done():
				return fvp.Metrics{}, ctx.Err()
			}
			return fvp.Metrics{IPC: 2.5}, nil
		},
	})
	defer svc.Close()

	const n = 32
	var wg sync.WaitGroup
	statuses := make([]JobStatus, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := submitOne(svc, RunRequest{RunSpec: fastSpec()})
			if err != nil {
				errs[i] = err
				return
			}
			statuses[i], errs[i] = svc.Wait(context.Background(), st.ID)
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("submit %d: %v", i, errs[i])
		}
		if statuses[i].State != StateDone || metricsOf(t, statuses[i]).IPC != 2.5 {
			t.Fatalf("submit %d: state=%s metrics=%s", i, statuses[i].State, statuses[i].Metrics)
		}
	}
	if got := sims.Load(); got != 1 {
		t.Errorf("%d simulations executed for one unique spec, want exactly 1", got)
	}
	snap := svc.Snapshot()
	if snap.CacheMisses != 1 || snap.CacheHits != n-1 {
		t.Errorf("hits=%d misses=%d, want %d/1", snap.CacheHits, snap.CacheMisses, n-1)
	}
}

func TestQueueFullAllOrNothingBatch(t *testing.T) {
	release := make(chan struct{})
	svc := New(Config{
		Workers:   1,
		QueueSize: 2,
		Run: func(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error) {
			select {
			case <-release:
				return fvp.Metrics{IPC: 1}, nil
			case <-ctx.Done():
				return fvp.Metrics{}, ctx.Err()
			}
		},
	})
	defer svc.Close()
	defer close(release)

	// Occupy the worker, then fill one of two queue slots.
	specN := func(n uint64) RunRequest {
		s := fastSpec()
		s.WarmupInsts = n // distinct spec per n
		return RunRequest{RunSpec: s}
	}
	if _, err := submitOne(svc, specN(10)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return svc.Snapshot().JobsRunning == 1 })
	if _, err := submitOne(svc, specN(20)); err != nil {
		t.Fatal(err)
	}

	// A 2-run batch needs 2 slots but only 1 is free: reject whole batch.
	if _, err := submit(svc, specN(30), specN(40)); err != ErrQueueFull {
		t.Fatalf("over-capacity batch: err=%v, want ErrQueueFull", err)
	}
	if got := svc.Snapshot().JobsQueued; got != 1 {
		t.Errorf("rejected batch must not leak queue slots: queued=%d, want 1", got)
	}
	// A 2-run batch whose second entry dedups onto the first needs 1 slot.
	if _, err := submit(svc, specN(50), specN(50)); err != nil {
		t.Errorf("dedupable batch should fit: %v", err)
	}
}

// TestCancelStopsSimulation submits an hours-long real simulation and
// cancels it; the cycle loop must observe the context and free the
// worker within a stats-poll interval, not at end of run.
func TestCancelStopsSimulation(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()

	spec := fvp.RunSpec{Workload: "omnetpp", Predictor: fvp.PredFVP, MeasureInsts: 1_000_000_000}
	st, err := submitOne(svc, RunRequest{RunSpec: spec})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return svc.Snapshot().JobsRunning == 1 })

	if !svc.Cancel(st.ID) {
		t.Fatal("cancel of a running job must succeed")
	}
	waitFor(t, func() bool {
		s := svc.Snapshot()
		return s.JobsRunning == 0 && s.JobsCanceled >= 1
	})
	final, _ := svc.Get(st.ID)
	if final.State != StateCanceled {
		t.Errorf("job state = %s, want canceled", final.State)
	}
	// The freed worker must pick up new work (fast real run).
	st2, err := submitOne(svc, RunRequest{RunSpec: fastSpec()})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := svc.Wait(context.Background(), st2.ID); err != nil || got.State != StateDone {
		t.Errorf("post-cancel run: state=%s err=%v", got.State, err)
	}
}

// TestCancelFollowerKeepsLeader checks that canceling one deduplicated
// submitter does not kill the simulation others still wait on.
func TestCancelFollowerKeepsLeader(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	svc := New(Config{
		Workers: 1,
		Run: func(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error) {
			close(started)
			select {
			case <-release:
				return fvp.Metrics{IPC: 9}, nil
			case <-ctx.Done():
				return fvp.Metrics{}, ctx.Err()
			}
		},
	})
	defer svc.Close()

	leader, err := submitOne(svc, RunRequest{RunSpec: fastSpec()})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	follower, err := submitOne(svc, RunRequest{RunSpec: fastSpec()})
	if err != nil {
		t.Fatal(err)
	}
	if !follower.Cached {
		t.Fatal("second identical submit must dedup onto the in-flight run")
	}

	if !svc.Cancel(follower.ID) {
		t.Fatal("canceling the follower must succeed")
	}
	close(release)
	st, err := svc.Wait(context.Background(), leader.ID)
	if err != nil || st.State != StateDone || metricsOf(t, st).IPC != 9 {
		t.Errorf("leader must still finish: state=%s err=%v", st.State, err)
	}
	if fst, _ := svc.Get(follower.ID); fst.State != StateCanceled {
		t.Errorf("follower state = %s, want canceled", fst.State)
	}
}

func TestDrainFinishesQueuedWork(t *testing.T) {
	svc := New(Config{Workers: 1})
	sts, err := submit(svc,
		RunRequest{RunSpec: fastSpec()},
		RunRequest{RunSpec: fvp.RunSpec{Workload: "mcf", WarmupInsts: 1_000, MeasureInsts: 2_000}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, st := range sts {
		if final, _ := svc.Get(st.ID); final.State != StateDone {
			t.Errorf("job %s state = %s after drain, want done", st.ID, final.State)
		}
	}
	if _, err := submitOne(svc, RunRequest{RunSpec: fastSpec()}); err != ErrClosed {
		t.Errorf("submit after drain: err=%v, want ErrClosed", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	_, err := submitOne(svc, RunRequest{RunSpec: fvp.RunSpec{Workload: "omnetp"}})
	if err == nil {
		t.Fatal("misspelled workload must be rejected")
	}
	if !strings.Contains(err.Error(), `did you mean "omnetpp"`) {
		t.Errorf("error should carry a suggestion, got %q", err)
	}
}

// waitFor polls cond every 20ms — the test's stats-poll interval — and
// fails the test if it doesn't hold within 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}
