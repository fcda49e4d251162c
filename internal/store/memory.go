package store

import (
	"bytes"
	"container/list"
	"io"
	"sync"
)

// MemoryJobStore is the default JobStore: a monotonic counter plus a map
// of live (non-terminal) records. Nothing survives the process — exactly
// the pre-durability fvpd semantics — so terminal records are dropped
// immediately rather than held for compaction, and Recover is only
// meaningful for a store handed from one Service to another in tests.
type MemoryJobStore struct {
	mu    sync.Mutex
	next  uint64
	jobs  map[uint64]*JobRecord
	order []uint64
	bytes int64
	muts  uint64
}

// NewMemoryJobStore returns an empty in-memory job store.
func NewMemoryJobStore() *MemoryJobStore {
	return &MemoryJobStore{jobs: make(map[uint64]*JobRecord)}
}

func (s *MemoryJobStore) NextID() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	return s.next
}

func (s *MemoryJobStore) Enqueue(rec JobRecord) error {
	return s.AppendBatch([]JobRecord{rec})
}

func (s *MemoryJobStore) AppendBatch(recs []JobRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range recs {
		rec.State = JobQueued
		r := rec
		s.jobs[rec.ID] = &r
		s.order = append(s.order, rec.ID)
		s.bytes += jobRecordBytes(rec)
		s.muts++
	}
	return nil
}

func (s *MemoryJobStore) SetState(id uint64, state, errMsg string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	if !ok {
		return nil
	}
	s.muts++
	if TerminalJobState(state) {
		// No process restart can recover a memory store, so a terminal
		// record is dead weight: drop it now instead of at compaction.
		s.bytes -= jobRecordBytes(*rec)
		delete(s.jobs, id)
		for i, oid := range s.order {
			if oid == id {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		return nil
	}
	rec.State, rec.Error = state, errMsg
	return nil
}

func (s *MemoryJobStore) Recover() []JobRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobRecord, 0, len(s.order))
	for _, id := range s.order {
		if rec, ok := s.jobs[id]; ok && !TerminalJobState(rec.State) {
			out = append(out, *rec)
		}
	}
	return out
}

func (s *MemoryJobStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Records: len(s.jobs), Bytes: s.bytes, Appends: s.muts}
}

func (s *MemoryJobStore) Close() error { return nil }

func jobRecordBytes(rec JobRecord) int64 {
	return int64(len(rec.Key) + len(rec.Tenant) + len(rec.Spec) + len(rec.Error))
}

// MemoryResultStore is the default ResultStore: the LRU that used to
// live inside internal/simd, now with byte accounting (spec key plus
// encoded result) and an optional total-byte cap alongside the entry cap.
// It is also the index engine of the disk backend, which layers a record
// log underneath via Insert's eviction report.
type MemoryResultStore struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	order      *list.List               // front = most recent
	byKey      map[string]*list.Element // value: *resultEntry
	bytes      int64
	muts       uint64
}

type resultEntry struct {
	key   string
	value []byte
}

// NewMemoryResultStore returns an LRU result store holding at most
// maxEntries records (<=0 means unlimited) and, when maxBytes > 0, at
// most maxBytes of key+value payload.
func NewMemoryResultStore(maxEntries int, maxBytes int64) *MemoryResultStore {
	return &MemoryResultStore{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		order:      list.New(),
		byKey:      make(map[string]*list.Element),
	}
}

func (c *MemoryResultStore) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*resultEntry).value, true
}

func (c *MemoryResultStore) Has(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.byKey[key]
	return ok
}

func (c *MemoryResultStore) Put(key string, value []byte) error {
	c.Insert(key, value)
	return nil
}

// Insert is Put plus an eviction report: the keys displaced by the entry
// caps, oldest first. The disk backend uses the report to append delete
// records so its log replays to the same live set.
func (c *MemoryResultStore) Insert(key string, value []byte) (evicted []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.muts++
	if el, ok := c.byKey[key]; ok {
		ent := el.Value.(*resultEntry)
		c.bytes += int64(len(value)) - int64(len(ent.value))
		ent.value = value
		c.order.MoveToFront(el)
		return c.evictOverCapLocked()
	}
	c.byKey[key] = c.order.PushFront(&resultEntry{key: key, value: value})
	c.bytes += int64(len(key) + len(value))
	return c.evictOverCapLocked()
}

// Delete removes one entry (disk-backend replay of delete records).
func (c *MemoryResultStore) Delete(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.removeLocked(el)
	}
}

func (c *MemoryResultStore) evictOverCapLocked() (evicted []string) {
	for (c.maxEntries > 0 && c.order.Len() > c.maxEntries) ||
		(c.maxBytes > 0 && c.bytes > c.maxBytes && c.order.Len() > 1) {
		oldest := c.order.Back()
		evicted = append(evicted, oldest.Value.(*resultEntry).key)
		c.removeLocked(oldest)
	}
	return evicted
}

func (c *MemoryResultStore) removeLocked(el *list.Element) {
	ent := el.Value.(*resultEntry)
	c.order.Remove(el)
	delete(c.byKey, ent.key)
	c.bytes -= int64(len(ent.key) + len(ent.value))
}

// Snapshot returns the live records oldest-first, so replaying them as
// puts reconstructs both the set and its LRU order. The disk backend's
// compaction writes exactly this sequence.
func (c *MemoryResultStore) Snapshot() []ResultRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ResultRecord, 0, c.order.Len())
	for el := c.order.Back(); el != nil; el = el.Prev() {
		ent := el.Value.(*resultEntry)
		out = append(out, ResultRecord{Key: ent.key, Value: ent.value})
	}
	return out
}

func (c *MemoryResultStore) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

func (c *MemoryResultStore) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Records: c.order.Len(), Bytes: c.bytes, Appends: c.muts}
}

func (c *MemoryResultStore) Close() error { return nil }

// ResultRecord is one content-addressed result record: a key and its
// encoded value, with no job lifecycle attached.
type ResultRecord struct {
	Key   string
	Value []byte
}

// MemoryBlobStore is the default BlobStore: a bounded FIFO of byte
// slices. It exists so trace artifacts work without a data directory;
// the cap keeps an artifact-happy client from growing the daemon's heap
// without bound (the disk backend is the real archive).
type MemoryBlobStore struct {
	mu    sync.Mutex
	max   int
	blobs map[string][]byte
	order []string
	bytes int64
	muts  uint64
}

// DefaultMemoryBlobCap bounds the in-memory blob archive.
const DefaultMemoryBlobCap = 256

// NewMemoryBlobStore returns an in-memory blob store holding at most
// maxBlobs entries (<=0 selects DefaultMemoryBlobCap), oldest evicted
// first.
func NewMemoryBlobStore(maxBlobs int) *MemoryBlobStore {
	if maxBlobs <= 0 {
		maxBlobs = DefaultMemoryBlobCap
	}
	return &MemoryBlobStore{max: maxBlobs, blobs: make(map[string][]byte)}
}

func (b *MemoryBlobStore) Put(key string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.muts++
	if old, ok := b.blobs[key]; ok {
		b.bytes += int64(len(data)) - int64(len(old))
		b.blobs[key] = append([]byte(nil), data...)
		return nil
	}
	b.blobs[key] = append([]byte(nil), data...)
	b.order = append(b.order, key)
	b.bytes += int64(len(key) + len(data))
	for len(b.order) > b.max {
		evict := b.order[0]
		b.order = b.order[1:]
		b.bytes -= int64(len(evict) + len(b.blobs[evict]))
		delete(b.blobs, evict)
	}
	return nil
}

func (b *MemoryBlobStore) Open(key string) (io.ReadCloser, error) {
	b.mu.Lock()
	data, ok := b.blobs[key]
	b.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	return io.NopCloser(bytes.NewReader(data)), nil
}

func (b *MemoryBlobStore) Has(key string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.blobs[key]
	return ok
}

func (b *MemoryBlobStore) List() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.order...)
}

func (b *MemoryBlobStore) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return Stats{Records: len(b.blobs), Bytes: b.bytes, Appends: b.muts}
}

func (b *MemoryBlobStore) Close() error { return nil }
