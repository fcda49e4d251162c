package disk

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fvp/internal/store"
)

func TestResultStorePersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.log")
	s, err := OpenResultStore(path, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("alpha", []byte(`{"ipc":1.5}`))
	s.Put("beta", []byte(`{"ipc":0.5}`))
	s.Close()

	s2, err := OpenResultStore(path, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok := s2.Get("alpha"); !ok || string(v) != `{"ipc":1.5}` {
		t.Errorf("alpha after reopen = %q, %v", v, ok)
	}
	if s2.Len() != 2 {
		t.Errorf("len after reopen = %d, want 2", s2.Len())
	}
	if got := s2.Stats().Recovered; got != 2 {
		t.Errorf("recovered = %d, want 2", got)
	}
}

func TestResultStoreEvictionSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.log")
	s, err := OpenResultStore(path, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("a", []byte("1"))
	s.Put("b", []byte("2"))
	s.Get("a")              // bump a
	s.Put("c", []byte("3")) // evicts b; the eviction is logged
	s.Close()

	s2, err := OpenResultStore(path, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Has("b") {
		t.Error("evicted entry b must not resurrect on reopen")
	}
	if !s2.Has("a") || !s2.Has("c") {
		t.Error("live entries a and c must survive reopen")
	}
}

// An evicting put logs itself and its deletes with one fsync, and the
// log still replays to the same live set in the same LRU order.
func TestResultStoreEvictingPutOneSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.log")
	s, err := OpenResultStore(path, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	const puts = 10
	for i := 0; i < puts; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if s.w.syncs != uint64(i+1) {
			t.Fatalf("after put %d: %d syncs, want %d", i, s.w.syncs, i+1)
		}
	}
	if got, want := s.Stats().Appends, uint64(puts+puts-3); got != want {
		t.Errorf("appends = %d, want %d (every put plus every eviction)", got, want)
	}
	live := s.idx.Snapshot()
	s.Close()

	s2, err := OpenResultStore(path, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.idx.Snapshot(); !reflect.DeepEqual(got, live) {
		t.Errorf("reopened live set = %v, want %v", got, live)
	}
}

func TestResultStoreCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.log")
	s, err := OpenResultStore(path, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Many puts over few keys: the log accumulates dead records until the
	// compaction threshold trips and rewrites it as the 4-entry snapshot.
	for i := 0; i < 200; i++ {
		s.Put(fmt.Sprintf("k%d", i%4), []byte(fmt.Sprintf("v%03d", i)))
	}
	if got := s.Stats().Compactions; got == 0 {
		t.Fatal("expected at least one compaction after 200 appends over 4 keys")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > 4096 {
		t.Errorf("log is %d bytes after compaction; dead records not reclaimed", fi.Size())
	}
	s.Close()
	s2, err := OpenResultStore(path, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 196; i < 200; i++ {
		key := fmt.Sprintf("k%d", i%4)
		want := fmt.Sprintf("v%03d", i)
		if v, ok := s2.Get(key); !ok || string(v) != want {
			t.Errorf("%s after compaction+reopen = %q, want %q", key, v, want)
		}
	}
}

func TestJobStoreRecoverAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.log")
	s, err := OpenJobStore(path)
	if err != nil {
		t.Fatal(err)
	}
	id1, id2, id3 := s.NextID(), s.NextID(), s.NextID()
	for i, id := range []uint64{id1, id2, id3} {
		err := s.Enqueue(store.JobRecord{ID: id, Key: fmt.Sprintf("key%d", i), Spec: []byte(`{"workload":"w"}`)})
		if err != nil {
			t.Fatal(err)
		}
	}
	s.SetState(id1, store.JobRunning, "")
	s.SetState(id2, store.JobDone, "")
	s.Close() // id3 still queued, id1 running, id2 done

	s2, err := OpenJobStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs := s2.Recover()
	if len(recs) != 2 {
		t.Fatalf("recovered %d jobs, want 2 (running + queued): %+v", len(recs), recs)
	}
	if recs[0].ID != id1 || recs[0].State != store.JobRunning {
		t.Errorf("first recovered = %+v, want id %d running", recs[0], id1)
	}
	if recs[1].ID != id3 || recs[1].State != store.JobQueued {
		t.Errorf("second recovered = %+v, want id %d queued", recs[1], id3)
	}
	if string(recs[0].Spec) != `{"workload":"w"}` {
		t.Errorf("recovered spec = %q", recs[0].Spec)
	}
	if got := s2.Stats().Recovered; got != 2 {
		t.Errorf("stats recovered = %d, want 2", got)
	}
}

// TestJobStoreAppendBatchSingleSync: a batch append lands every record
// durably (reopen recovers all of them) while costing one log sync —
// the wal append counter moves by the record count but the underlying
// file grows in one write, and the batch is recoverable like N single
// enqueues.
func TestJobStoreAppendBatchSingleSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.log")
	s, err := OpenJobStore(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]store.JobRecord, 8)
	for i := range recs {
		recs[i] = store.JobRecord{ID: s.NextID(), Key: fmt.Sprintf("key%d", i), Tenant: "t", Spec: []byte(`{"workload":"w"}`)}
	}
	if err := s.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(nil); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Records != 8 || st.Appends != 8 {
		t.Fatalf("stats after batch = %+v, want 8 records / 8 appends", st)
	}
	s.Close()

	s2, err := OpenJobStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.Recover()
	if len(got) != 8 {
		t.Fatalf("recovered %d jobs, want 8", len(got))
	}
	for i, r := range got {
		if r.ID != recs[i].ID || r.Key != recs[i].Key || r.Tenant != "t" || r.State != store.JobQueued {
			t.Errorf("recovered[%d] = %+v, want %+v queued", i, r, recs[i])
		}
	}
	// IDs stay monotonic past the batch.
	if id := s2.NextID(); id <= recs[7].ID {
		t.Errorf("NextID after batch reopen = %d, want > %d", id, recs[7].ID)
	}
}

func TestJobStoreIDsMonotonicAcrossReopenAndCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.log")
	s, err := OpenJobStore(path)
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	// Enough terminal jobs to trip compaction several times; the mark
	// record must carry the ID high-water past the dropped records.
	for i := 0; i < 300; i++ {
		last = s.NextID()
		if err := s.Enqueue(store.JobRecord{ID: last, Key: "k", Spec: []byte("{}")}); err != nil {
			t.Fatal(err)
		}
		if err := s.SetState(last, store.JobDone, ""); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Compactions == 0 {
		t.Fatal("expected compactions after 300 terminal jobs")
	}
	s.Close()
	s2, err := OpenJobStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if next := s2.NextID(); next <= last {
		t.Errorf("NextID after reopen = %d, want > %d (monotonic across restarts)", next, last)
	}
	if recovered := s2.Recover(); len(recovered) != 0 {
		t.Errorf("recovered %d terminal jobs, want 0", len(recovered))
	}
}

func TestBlobStoreRoundTripAndReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "blobs")
	b, err := OpenBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"traceEvents":[]}`)
	if err := b.Put("trace-abc123", payload); err != nil {
		t.Fatal(err)
	}
	rc, err := b.Open("trace-abc123")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(rc)
	rc.Close()
	if string(got) != string(payload) {
		t.Errorf("blob = %q, want %q", got, payload)
	}

	// A crash-orphaned staging dir must be swept at open and never listed.
	os.MkdirAll(filepath.Join(dir, ".tmp-orphan"), 0o755)
	os.WriteFile(filepath.Join(dir, ".tmp-orphan", "data"), []byte("torn"), 0o644)
	b2, err := OpenBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, ".tmp-orphan")); !os.IsNotExist(err) {
		t.Error("staging dir must be swept on open")
	}
	if keys := b2.List(); len(keys) != 1 || keys[0] != "trace-abc123" {
		t.Errorf("List after reopen = %v", keys)
	}
	if st := b2.Stats(); st.Records != 1 || st.Bytes != int64(len(payload)) {
		t.Errorf("stats = %+v", st)
	}
}

func TestBlobStoreRejectsUnsafeKeys(t *testing.T) {
	b, err := OpenBlobStore(filepath.Join(t.TempDir(), "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "../escape", "a/b", ".hidden", "nul\x00byte"} {
		if err := b.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) must reject an unsafe key", key)
		}
		if _, err := b.Open(key); err != store.ErrNotFound {
			t.Errorf("Open(%q) = %v, want ErrNotFound", key, err)
		}
	}
}

func TestOpenStores(t *testing.T) {
	dir := t.TempDir()
	stores, err := Open(dir, Options{CacheEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	id := stores.Jobs.NextID()
	if err := stores.Jobs.Enqueue(store.JobRecord{ID: id, Key: "k", Spec: []byte("{}")}); err != nil {
		t.Fatal(err)
	}
	stores.Results.Put("k", []byte("v"))
	stores.Blobs.Put("b", []byte("blob"))
	if err := stores.Close(); err != nil {
		t.Fatal(err)
	}
	stores2, err := Open(dir, Options{CacheEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer stores2.Close()
	if len(stores2.Jobs.Recover()) != 1 || !stores2.Results.Has("k") || !stores2.Blobs.Has("b") {
		t.Error("all three stores must recover their state from the data dir")
	}
}
