package disk

import (
	"encoding/json"
	"fmt"
	"sync"

	"fvp/internal/store"
)

// jobLogRec is the JSON payload of one job-log record. Three shapes share
// the frame, discriminated by T:
//
//	enq  — a job was admitted (ID, Key, Spec; state starts queued)
//	st   — a job changed state (ID, State, Err)
//	mark — an ID high-water mark, written by compaction so monotonic IDs
//	       survive the terminal records being dropped
type jobLogRec struct {
	T      string `json:"t"`
	ID     uint64 `json:"id,omitempty"`
	Key    string `json:"key,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	// Spec is the opaque encoded run request; encoding/json base64s it.
	Spec  []byte `json:"spec,omitempty"`
	State string `json:"state,omitempty"`
	Err   string `json:"err,omitempty"`
}

// JobStore is the crash-safe file JobStore: every enqueue and state
// transition is an fsync'd log append, so the set of queued-or-running
// jobs at any crash point is exactly what Recover returns on the next
// boot. Terminal jobs are dead records; when they outnumber live ones
// past a threshold the log is compacted — rewritten as a snapshot of the
// live jobs plus an ID mark — via atomic rename.
type JobStore struct {
	mu     sync.Mutex
	w      *wal
	jobs   map[uint64]*store.JobRecord
	order  []uint64
	nextID uint64
	// dirty counts records appended since open/compaction; the compaction
	// trigger compares it against the live-job count.
	dirty     int
	bytes     int64
	recovered uint64
}

// compactAfter is the minimum number of appended records before a
// compaction is considered; beyond it, the log is rewritten whenever the
// appended records outnumber the live jobs 4:1.
const compactAfter = 64

// OpenJobStore opens (creating if absent) the job log at path and
// replays it.
func OpenJobStore(path string) (*JobStore, error) {
	w, records, err := openWAL(path)
	if err != nil {
		return nil, err
	}
	s := &JobStore{w: w, jobs: make(map[uint64]*store.JobRecord)}
	for _, payload := range records {
		var rec jobLogRec
		if err := json.Unmarshal(payload, &rec); err != nil {
			// An intact frame with an unreadable payload is a version skew
			// or author bug, not a torn write; fail loudly rather than
			// silently dropping jobs.
			w.Close()
			return nil, fmt.Errorf("disk: job log %s: unreadable record: %w", path, err)
		}
		s.replay(rec)
	}
	s.dirty = 0
	for _, j := range s.jobs {
		if !store.TerminalJobState(j.State) {
			s.recovered++
		}
	}
	return s, nil
}

func (s *JobStore) replay(rec jobLogRec) {
	if rec.ID > s.nextID {
		s.nextID = rec.ID
	}
	switch rec.T {
	case "enq":
		r := &store.JobRecord{ID: rec.ID, Key: rec.Key, Tenant: rec.Tenant, Spec: append([]byte(nil), rec.Spec...), State: store.JobQueued, Error: rec.Err}
		if rec.State != "" {
			r.State = rec.State // compaction snapshots preserve running
		}
		if _, dup := s.jobs[rec.ID]; !dup {
			s.order = append(s.order, rec.ID)
			s.bytes += int64(len(r.Key) + len(r.Spec))
		}
		s.jobs[rec.ID] = r
	case "st":
		if j, ok := s.jobs[rec.ID]; ok {
			j.State, j.Error = rec.State, rec.Err
		}
	case "mark":
		// ID high-water only, already applied above.
	}
	s.dirty++
}

func (s *JobStore) NextID() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	return s.nextID
}

// Enqueue is AppendBatch of one record: one write and one fsync.
func (s *JobStore) Enqueue(rec store.JobRecord) error {
	return s.AppendBatch([]store.JobRecord{rec})
}

// AppendBatch records a whole admission batch with one write and one
// fsync (via wal.appendAll) instead of a sync per job — the durable-cost
// amortization behind the service's edge micro-batcher. On error nothing
// is applied in memory and the caller treats the batch as refused; a
// crash mid-write can leave a durable prefix, which recovery re-dispatches
// like any other interrupted jobs.
func (s *JobStore) AppendBatch(recs []store.JobRecord) error {
	if len(recs) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	payloads := make([][]byte, len(recs))
	for i, rec := range recs {
		if rec.ID > s.nextID {
			s.nextID = rec.ID
		}
		payload, err := json.Marshal(jobLogRec{T: "enq", ID: rec.ID, Key: rec.Key, Tenant: rec.Tenant, Spec: rec.Spec})
		if err != nil {
			return err
		}
		payloads[i] = payload
	}
	if err := s.w.appendAll(payloads); err != nil {
		return err
	}
	for _, rec := range recs {
		rec.State = store.JobQueued
		r := rec
		s.jobs[rec.ID] = &r
		s.order = append(s.order, rec.ID)
		s.bytes += int64(len(rec.Key) + len(rec.Spec))
		s.dirty++
	}
	return nil
}

func (s *JobStore) SetState(id uint64, state, errMsg string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil
	}
	payload, err := json.Marshal(jobLogRec{T: "st", ID: id, State: state, Err: errMsg})
	if err != nil {
		return err
	}
	if err := s.w.append(payload); err != nil {
		return err
	}
	j.State, j.Error = state, errMsg
	s.dirty++
	return s.maybeCompactLocked()
}

// maybeCompactLocked rewrites the log as a snapshot of the live jobs
// when appended records dominate them, dropping terminal records.
func (s *JobStore) maybeCompactLocked() error {
	live := 0
	for _, j := range s.jobs {
		if !store.TerminalJobState(j.State) {
			live++
		}
	}
	if s.dirty < compactAfter || s.dirty <= 4*live {
		return nil
	}
	records := make([][]byte, 0, live+1)
	mark, err := json.Marshal(jobLogRec{T: "mark", ID: s.nextID})
	if err != nil {
		return err
	}
	records = append(records, mark)
	keep := make([]uint64, 0, live)
	var bytes int64
	for _, id := range s.order {
		j, ok := s.jobs[id]
		if !ok || store.TerminalJobState(j.State) {
			delete(s.jobs, id)
			continue
		}
		payload, err := json.Marshal(jobLogRec{T: "enq", ID: j.ID, Key: j.Key, Tenant: j.Tenant, Spec: j.Spec, State: j.State, Err: j.Error})
		if err != nil {
			return err
		}
		records = append(records, payload)
		keep = append(keep, id)
		bytes += int64(len(j.Key) + len(j.Spec))
	}
	if err := s.w.rewrite(records); err != nil {
		return err
	}
	s.order = keep
	s.bytes = bytes
	s.dirty = 0
	return nil
}

func (s *JobStore) Recover() []store.JobRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]store.JobRecord, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok && !store.TerminalJobState(j.State) {
			out = append(out, *j)
		}
	}
	return out
}

func (s *JobStore) Stats() store.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return store.Stats{
		Records:     len(s.jobs),
		Bytes:       s.bytes,
		Appends:     s.w.appends,
		Compactions: s.w.compactions,
		Recovered:   s.recovered,
	}
}

func (s *JobStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Close()
}
