package disk

import (
	"encoding/json"
	"fmt"
	"sync"

	"fvp/internal/store"
)

// resultLogRec is the JSON payload of one result-log record: a put (key
// and encoded result) or a delete (eviction), discriminated by T.
type resultLogRec struct {
	T   string `json:"t"` // "put" | "del"
	Key string `json:"key"`
	// Val is the opaque record value; encoding/json base64s it, keeping
	// the log line-safe for arbitrary bytes.
	Val []byte `json:"val,omitempty"`
}

// ResultStore is the crash-safe file ResultStore: a MemoryResultStore
// index (the same LRU + byte accounting as the default backend, so both
// backends evict identically) over an fsync'd record log. A put is
// durable once Put returns; recency bumps are deliberately not logged —
// a cache hit must not cost an fsync — so after a restart the LRU order
// degrades to log order, which compaction (a snapshot of the live
// entries in recency order) periodically restores.
type ResultStore struct {
	mu        sync.Mutex
	w         *wal
	idx       *store.MemoryResultStore
	dirty     int
	recovered uint64
}

// OpenResultStore opens (creating if absent) the result log at path.
// maxEntries and maxBytes bound the live set exactly as the memory
// backend does (<=0: unlimited entries; 0: unlimited bytes).
func OpenResultStore(path string, maxEntries int, maxBytes int64) (*ResultStore, error) {
	w, records, err := openWAL(path)
	if err != nil {
		return nil, err
	}
	// Replay uncapped and honor del records literally: evictions were
	// driven by recency bumps that are deliberately not logged, so
	// re-deriving them from log order would evict the wrong entries.
	// Caps are applied once, after the live set is reconstructed.
	replayed := store.NewMemoryResultStore(0, 0)
	for _, payload := range records {
		var rec resultLogRec
		if err := json.Unmarshal(payload, &rec); err != nil {
			w.Close()
			return nil, fmt.Errorf("disk: result log %s: unreadable record: %w", path, err)
		}
		switch rec.T {
		case "put":
			replayed.Insert(rec.Key, append([]byte(nil), rec.Val...))
		case "del":
			replayed.Delete(rec.Key)
		}
	}
	s := &ResultStore{w: w, idx: store.NewMemoryResultStore(maxEntries, maxBytes)}
	for _, r := range replayed.Snapshot() {
		s.idx.Insert(r.Key, r.Value)
	}
	s.recovered = uint64(s.idx.Len())
	return s, nil
}

func (s *ResultStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.Get(key)
}

func (s *ResultStore) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.Has(key)
}

// Put logs the put and the deletes of the entries it evicts as one
// batch, so an evicting put costs one fsync. If the batch fails, the key
// leaves the index too: the index then holds nothing the log may lack.
func (s *ResultStore) Put(key string, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	put, err := json.Marshal(resultLogRec{T: "put", Key: key, Val: value})
	if err != nil {
		return err
	}
	records := [][]byte{put}
	for _, evicted := range s.idx.Insert(key, value) {
		del, err := json.Marshal(resultLogRec{T: "del", Key: evicted})
		if err != nil {
			s.idx.Delete(key)
			return err
		}
		records = append(records, del)
	}
	if err := s.w.appendAll(records); err != nil {
		s.idx.Delete(key)
		return err
	}
	s.dirty += len(records)
	return s.maybeCompactLocked()
}

// maybeCompactLocked rewrites the log as a snapshot of the live entries
// (oldest-first, so replay reconstructs the LRU order) once appended
// records outnumber them past the threshold.
func (s *ResultStore) maybeCompactLocked() error {
	if s.dirty < compactAfter || s.dirty <= 2*s.idx.Len() {
		return nil
	}
	snap := s.idx.Snapshot()
	records := make([][]byte, 0, len(snap))
	for _, r := range snap {
		payload, err := json.Marshal(resultLogRec{T: "put", Key: r.Key, Val: r.Value})
		if err != nil {
			return err
		}
		records = append(records, payload)
	}
	if err := s.w.rewrite(records); err != nil {
		return err
	}
	s.dirty = 0
	return nil
}

func (s *ResultStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.Len()
}

func (s *ResultStore) Stats() store.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.idx.Stats()
	return store.Stats{
		Records:     st.Records,
		Bytes:       st.Bytes,
		Appends:     s.w.appends,
		Compactions: s.w.compactions,
		Recovered:   s.recovered,
	}
}

func (s *ResultStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Close()
}
