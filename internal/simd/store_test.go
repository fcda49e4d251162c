package simd

import (
	"context"
	"encoding/json"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fvp"
	"fvp/internal/store"
	"fvp/internal/store/disk"
)

func openDisk(t *testing.T, dir string) store.Stores {
	t.Helper()
	stores, err := disk.Open(dir, disk.Options{CacheEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	return stores
}

// TestDiskRestartRedispatchesJobs is the crash contract end-to-end at the
// service layer: jobs queued or running when the process dies (svc1 is
// abandoned, not closed — Close would gracefully finalize them) are
// re-dispatched by the next process under their original IDs and run to
// completion.
func TestDiskRestartRedispatchesJobs(t *testing.T) {
	dir := t.TempDir()

	started := make(chan struct{}, 1)
	block := make(chan struct{}) // never closed: svc1's run hangs forever
	svc1 := New(Config{
		Workers: 1, Stores: openDisk(t, dir),
		Run: func(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error) {
			started <- struct{}{}
			<-block
			return fvp.Metrics{}, ctx.Err()
		},
	})
	specA := fastSpec()
	specB := fastSpec()
	specB.Predictor = fvp.PredNone
	stA, err := svc1.Submit(RunRequest{RunSpec: specA})
	if err != nil {
		t.Fatal(err)
	}
	stB, err := svc1.Submit(RunRequest{RunSpec: specB})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started: // A is running, B queued behind the single worker
	case <-time.After(5 * time.Second):
		t.Fatal("job never started")
	}
	// Crash: abandon svc1 without Close. Its worker is parked in the stub
	// and will never touch the store again.

	var ran atomic.Uint64
	svc2 := New(Config{
		Workers: 1, Stores: openDisk(t, dir),
		Run: func(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error) {
			ran.Add(1)
			return fvp.Metrics{IPC: 2, Cycles: 100, Insts: 200}, nil
		},
	})
	defer svc2.Close()

	if got := svc2.Snapshot().JobsRecovered; got != 2 {
		t.Fatalf("recovered %d jobs, want 2", got)
	}
	for _, id := range []string{stA.ID, stB.ID} {
		st, err := svc2.Wait(context.Background(), id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if st.State != StateDone || st.Metrics == nil || st.Metrics.IPC != 2 {
			t.Fatalf("recovered job %s = %+v, want done with stub metrics", id, st)
		}
	}
	if got := ran.Load(); got != 2 {
		t.Errorf("restart ran %d simulations, want 2", got)
	}
	// The listing shows both under their original IDs.
	listed := svc2.List(StateDone)
	if len(listed) != 2 || listed[0].ID != stA.ID || listed[1].ID != stB.ID {
		t.Errorf("List(done) after recovery = %+v", listed)
	}
	// Resubmitting either spec now hits the durable cache.
	again, err := svc2.Submit(RunRequest{RunSpec: specA})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.State != StateDone {
		t.Errorf("resubmit after recovery = %+v, want cached done", again)
	}
}

// TestTraceSkippedForConcurrentShapes: region-parallel and sampled runs
// cannot take the progress gauge or a trace, so a traced submit of either
// still completes, just without an artifact.
func TestTraceSkippedForConcurrentShapes(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	regions, sampled := fastSpec(), fastSpec()
	regions.Regions = 2
	sampled.MeasureInsts, sampled.SampleUnits, sampled.SampleUnitInsts = 20_000, 2, 1_000
	for _, spec := range []fvp.RunSpec{regions, sampled} {
		st, err := svc.Submit(RunRequest{RunSpec: spec, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		final, err := svc.Wait(context.Background(), st.ID)
		if err != nil || final.State != StateDone || len(final.Artifacts) != 0 {
			t.Errorf("traced %+v: %+v, %v; want done without artifacts", spec, final, err)
		}
	}
}

// TestRecoveryCountsNoCacheHits: jobs re-admitted at boot are not
// submits, so they count no cache hit or miss — neither a job completed
// from a result persisted just before the crash nor one that attaches to
// a recovered twin.
func TestRecoveryCountsNoCacheHits(t *testing.T) {
	jobs := store.NewMemoryJobStore()
	results := store.NewMemoryResultStore(16, 0)
	cachedSpec, twinSpec := fastSpec(), fastSpec()
	twinSpec.Predictor = fvp.PredNone
	var recs []store.JobRecord
	for _, spec := range []fvp.RunSpec{cachedSpec, twinSpec, twinSpec} {
		encoded, err := json.Marshal(RunRequest{RunSpec: spec})
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, store.JobRecord{ID: jobs.NextID(), Key: specKey(spec), Spec: encoded})
	}
	if err := jobs.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	// The crash landed after cachedSpec's result was stored but before its
	// job was marked done.
	result, _ := json.Marshal(fvp.Metrics{IPC: 1.5})
	if err := results.Put(recs[0].Key, result); err != nil {
		t.Fatal(err)
	}

	svc := New(Config{Workers: 1, Stores: store.Stores{Jobs: jobs, Results: results},
		Run: func(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error) {
			return fvp.Metrics{IPC: 2}, nil
		}})
	defer svc.Close()
	for _, rec := range recs {
		if _, err := svc.Wait(context.Background(), svc.jobID(rec.ID)); err != nil {
			t.Fatal(err)
		}
	}
	snap := svc.Snapshot()
	if snap.JobsRecovered != 3 || snap.CacheHits != 0 || snap.CacheMisses != 0 {
		t.Errorf("recovered=%d hits=%d misses=%d, want 3/0/0",
			snap.JobsRecovered, snap.CacheHits, snap.CacheMisses)
	}
}

// TestDiskCacheSurvivesRestart: a result computed before a graceful
// shutdown is served as a cache hit — without re-simulating — by the next
// process.
func TestDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	var ran atomic.Uint64
	stub := func(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error) {
		ran.Add(1)
		return fvp.Metrics{IPC: 1.25, Cycles: 160, Insts: 200}, nil
	}

	svc1 := New(Config{Workers: 1, Stores: openDisk(t, dir), Run: stub})
	first, err := svc1.Submit(RunRequest{RunSpec: fastSpec()})
	if err != nil {
		t.Fatal(err)
	}
	done, err := svc1.Wait(context.Background(), first.ID)
	if err != nil || done.State != StateDone {
		t.Fatalf("first run: %+v, %v", done, err)
	}
	svc1.Close()

	svc2 := New(Config{Workers: 1, Stores: openDisk(t, dir), Run: stub})
	defer svc2.Close()
	second, err := svc2.Submit(RunRequest{RunSpec: fastSpec()})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.State != StateDone || second.Metrics == nil {
		t.Fatalf("post-restart submit = %+v, want immediate cache hit", second)
	}
	if second.Metrics.IPC != 1.25 {
		t.Errorf("cached IPC = %v, want the pre-restart result", second.Metrics.IPC)
	}
	if got := ran.Load(); got != 1 {
		t.Errorf("simulation ran %d times across the restart, want 1", got)
	}
}

// TestMemoryBackendMatchesDefault: an explicit memory Stores behaves
// identically to the zero-config default (IDs, caching, metrics).
func TestMemoryBackendMatchesDefault(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	st, err := svc.Submit(RunRequest{RunSpec: fastSpec()})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j-00000001" {
		t.Errorf("first job ID = %s, want j-00000001", st.ID)
	}
	if _, err := svc.Wait(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	snap := svc.Snapshot()
	if snap.CacheEntries != 1 || snap.CacheBytes <= 0 {
		t.Errorf("cache accounting = %d entries / %d bytes, want 1 entry with bytes", snap.CacheEntries, snap.CacheBytes)
	}
	// The byte figure is exactly key + encoded result.
	key := specKey(fastSpec())
	final, _ := svc.Get(st.ID)
	encoded, _ := json.Marshal(*final.Metrics)
	if want := int64(len(key) + len(encoded)); snap.CacheBytes != want {
		t.Errorf("CacheBytes = %d, want %d (len(key)+len(encoded result))", snap.CacheBytes, want)
	}
}

// TestTraceArtifact: a run submitted with Trace produces a durable
// chrome://tracing artifact, listed on the job and streamable.
func TestTraceArtifact(t *testing.T) {
	svc := New(Config{Workers: 1, Stores: openDisk(t, t.TempDir())})
	defer svc.Close()
	st, err := svc.Submit(RunRequest{RunSpec: fastSpec(), Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	final, err := svc.Wait(context.Background(), st.ID)
	if err != nil || final.State != StateDone {
		t.Fatalf("traced run: %+v, %v", final, err)
	}
	key := specKey(fastSpec())
	if len(final.Artifacts) != 1 || final.Artifacts[0] != "trace-"+key {
		t.Fatalf("artifacts = %v, want [trace-%s]", final.Artifacts, key)
	}
	rc, err := svc.OpenArtifact(st.ID, "trace")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	blob, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "traceEvents") {
		t.Errorf("trace blob is not chrome://tracing JSON (got %d bytes)", len(blob))
	}
	// An untraced job on a different spec has no artifact.
	other := fastSpec()
	other.Predictor = fvp.PredNone
	st2, err := svc.Submit(RunRequest{RunSpec: other})
	if err != nil {
		t.Fatal(err)
	}
	svc.Wait(context.Background(), st2.ID)
	if _, err := svc.OpenArtifact(st2.ID, "trace"); err != store.ErrNotFound {
		t.Errorf("OpenArtifact on untraced job = %v, want ErrNotFound", err)
	}
}

// TestListFiltersByState covers the listing service API.
func TestListFiltersByState(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	st, err := svc.Submit(RunRequest{RunSpec: fastSpec()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Wait(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	if all := svc.List(""); len(all) != 1 || all[0].ID != st.ID {
		t.Errorf("List(\"\") = %+v", all)
	}
	if done := svc.List(StateDone); len(done) != 1 {
		t.Errorf("List(done) = %+v", done)
	}
	if queued := svc.List(StateQueued); len(queued) != 0 {
		t.Errorf("List(queued) = %+v, want empty", queued)
	}
}
