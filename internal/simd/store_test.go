package simd

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
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
	stA, err := submitOne(svc1, RunRequest{RunSpec: specA})
	if err != nil {
		t.Fatal(err)
	}
	stB, err := submitOne(svc1, RunRequest{RunSpec: specB})
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
		if st.State != StateDone || metricsOf(t, st).IPC != 2 {
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
	again, err := submitOne(svc2, RunRequest{RunSpec: specA})
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
		st, err := submitOne(svc, RunRequest{RunSpec: spec, Trace: true})
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
	first, err := submitOne(svc1, RunRequest{RunSpec: fastSpec()})
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
	second, err := submitOne(svc2, RunRequest{RunSpec: fastSpec()})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.State != StateDone {
		t.Fatalf("post-restart submit = %+v, want immediate cache hit", second)
	}
	if ipc := metricsOf(t, second).IPC; ipc != 1.25 {
		t.Errorf("cached IPC = %v, want the pre-restart result", ipc)
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
	st, err := submitOne(svc, RunRequest{RunSpec: fastSpec()})
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
	if want := int64(len(key) + len(final.Metrics)); snap.CacheBytes != want {
		t.Errorf("CacheBytes = %d, want %d (len(key)+len(encoded result))", snap.CacheBytes, want)
	}
}

// TestTraceArtifact: a run submitted with Trace produces a durable
// chrome://tracing artifact, listed on the job and streamable.
func TestTraceArtifact(t *testing.T) {
	svc := New(Config{Workers: 1, Stores: openDisk(t, t.TempDir())})
	defer svc.Close()
	st, err := submitOne(svc, RunRequest{RunSpec: fastSpec(), Trace: true})
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
	st2, err := submitOne(svc, RunRequest{RunSpec: other})
	if err != nil {
		t.Fatal(err)
	}
	svc.Wait(context.Background(), st2.ID)
	if _, err := svc.OpenArtifact(st2.ID, "trace"); err != store.ErrNotFound {
		t.Errorf("OpenArtifact on untraced job = %v, want ErrNotFound", err)
	}
}

// countingBlobs counts the Has calls a BlobStore answers.
type countingBlobs struct {
	store.BlobStore
	has atomic.Uint64
}

func (b *countingBlobs) Has(key string) bool {
	b.has.Add(1)
	return b.BlobStore.Has(key)
}

// Cache hits on a spec that was never traced ask the BlobStore nothing:
// with the disk backend each Has is a stat under the service lock.
func TestCacheHitsSkipBlobLookup(t *testing.T) {
	stores := openDisk(t, t.TempDir())
	blobs := &countingBlobs{BlobStore: stores.Blobs}
	stores.Blobs = blobs
	stub := func(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error) {
		return fvp.Metrics{IPC: 1.25, Cycles: 160, Insts: 200}, nil
	}
	svc := New(Config{Workers: 1, Stores: stores, Run: stub})
	defer svc.Close()
	for i := 0; i < 5; i++ {
		st, err := submitOne(svc, RunRequest{RunSpec: fastSpec()})
		if err != nil {
			t.Fatal(err)
		}
		final, err := svc.Wait(context.Background(), st.ID)
		if err != nil || final.State != StateDone || len(final.Artifacts) != 0 {
			t.Fatalf("submit %d: %+v, %v", i, final, err)
		}
		if i > 0 && !final.Cached {
			t.Fatalf("submit %d was not a cache hit", i)
		}
	}
	if n := blobs.has.Load(); n != 0 {
		t.Errorf("an untraced spec's run and 4 hits asked the BlobStore %d times, want 0", n)
	}
}

// A trace published before a restart is listed on the cache hits of the
// next process.
func TestTraceListedAfterRestart(t *testing.T) {
	dir := t.TempDir()
	svc1 := New(Config{Workers: 1, Stores: openDisk(t, dir)})
	st, err := submitOne(svc1, RunRequest{RunSpec: fastSpec(), Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if final, err := svc1.Wait(context.Background(), st.ID); err != nil || len(final.Artifacts) != 1 {
		t.Fatalf("traced run: %+v, %v", final, err)
	}
	svc1.Close()

	svc2 := New(Config{Workers: 1, Stores: openDisk(t, dir)})
	defer svc2.Close()
	hit, err := submitOne(svc2, RunRequest{RunSpec: fastSpec()})
	if err != nil {
		t.Fatal(err)
	}
	if want := "trace-" + specKey(fastSpec()); !hit.Cached || len(hit.Artifacts) != 1 || hit.Artifacts[0] != want {
		t.Fatalf("post-restart hit = %+v, want a cached job listing %s", hit, want)
	}
}

// TestListFiltersByState covers the listing service API.
func TestListFiltersByState(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	st, err := submitOne(svc, RunRequest{RunSpec: fastSpec()})
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

// jobLog decodes the job log under dir into one "t[:state]" entry per
// record: "enq" for an admission, "st:done" for a state change. Frames are
// an 8-byte header (little-endian length, then CRC) and a JSON payload.
func jobLog(t *testing.T, dir string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "jobs.log"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for len(data) >= 8 {
		n := binary.LittleEndian.Uint32(data)
		var rec struct{ T, State string }
		if err := json.Unmarshal(data[8:8+n], &rec); err != nil {
			t.Fatal(err)
		}
		if rec.State != "" {
			rec.T += ":" + rec.State
		}
		out = append(out, rec.T)
		data = data[8+n:]
	}
	return out
}

// TestDiskRecoversRunningRecord: logs written by binaries that recorded a
// job's start hold a running record. Such a job re-runs under its
// original ID, and the job queued behind it does too.
func TestDiskRecoversRunningRecord(t *testing.T) {
	dir := t.TempDir()
	jobs, err := disk.OpenJobStore(filepath.Join(dir, "jobs.log"))
	if err != nil {
		t.Fatal(err)
	}
	specB := fastSpec()
	specB.Predictor = fvp.PredNone
	var ids []uint64
	for _, spec := range []fvp.RunSpec{fastSpec(), specB} {
		encoded, err := json.Marshal(RunRequest{RunSpec: spec})
		if err != nil {
			t.Fatal(err)
		}
		id := jobs.NextID()
		if err := jobs.Enqueue(store.JobRecord{ID: id, Key: specKey(spec.Normalized()), Spec: encoded}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := jobs.SetState(ids[0], store.JobRunning, ""); err != nil {
		t.Fatal(err)
	}
	if err := jobs.Close(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(jobLog(t, dir), " "); got != "enq enq st:running" {
		t.Fatalf("seeded job log = %q", got)
	}

	var ran atomic.Uint64
	svc := New(Config{Workers: 1, Stores: openDisk(t, dir), Run: func(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error) {
		ran.Add(1)
		return fvp.Metrics{IPC: 2, Cycles: 100, Insts: 200}, nil
	}})
	defer svc.Close()
	if got := svc.Snapshot().JobsRecovered; got != 2 {
		t.Fatalf("recovered %d jobs, want 2", got)
	}
	for _, id := range ids {
		st, err := svc.Wait(context.Background(), svc.jobID(id))
		if err != nil || st.State != StateDone || metricsOf(t, st).IPC != 2 {
			t.Fatalf("recovered job %s = %+v, %v; want done with stub metrics", svc.jobID(id), st, err)
		}
	}
	if got := ran.Load(); got != 2 {
		t.Errorf("recovery ran %d simulations, want 2", got)
	}
}

// TestDiskConcurrentRunsDurable: two workers finish at the same moment and
// put their results outside the service lock, concurrently (what go test
// -race checks here). The job log then holds each job's enqueue and done
// records and no running record, which would cost an fsync and carry
// nothing: recovery re-dispatches queued and running jobs alike. The next
// process serves both specs from the cache without simulating.
func TestDiskConcurrentRunsDurable(t *testing.T) {
	dir := t.TempDir()
	var arrived sync.WaitGroup
	arrived.Add(2)
	svc1 := New(Config{Workers: 2, Stores: openDisk(t, dir), Run: func(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error) {
		arrived.Done()
		arrived.Wait() // both runs return together
		return fvp.Metrics{IPC: 1.5, Cycles: 4, Insts: 6}, nil
	}})
	specB := fastSpec()
	specB.Predictor = fvp.PredNone
	specs := []fvp.RunSpec{fastSpec(), specB}
	var ids []string
	for _, spec := range specs {
		st, err := submitOne(svc1, RunRequest{RunSpec: spec})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if done, err := svc1.Wait(context.Background(), id); err != nil || done.State != StateDone {
			t.Fatalf("run %s: %+v, %v", id, done, err)
		}
	}
	svc1.Close()
	if got := strings.Join(jobLog(t, dir), " "); got != "enq enq st:done st:done" {
		t.Errorf("job log = %q, want %q", got, "enq enq st:done st:done")
	}

	svc2 := New(Config{Workers: 1, Stores: openDisk(t, dir), Run: func(ctx context.Context, spec fvp.RunSpec) (fvp.Metrics, error) {
		t.Errorf("spec %+v simulated again", spec)
		return fvp.Metrics{}, nil
	}})
	defer svc2.Close()
	for _, spec := range specs {
		st, err := submitOne(svc2, RunRequest{RunSpec: spec})
		if err != nil {
			t.Fatal(err)
		}
		if !st.Cached || metricsOf(t, st).IPC != 1.5 {
			t.Errorf("resubmit = %+v, want a cache hit", st)
		}
	}
}
