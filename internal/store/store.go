// Package store defines the durable-storage seams under the fvpd
// batch-simulation service (internal/simd): a JobStore for the run
// queue's lifecycle records, a ResultStore for the content-addressed
// result cache, and a BlobStore for large artifacts such as Perfetto
// pipeline traces. Each interface has two implementations — the
// in-memory backends in this package (the default, preserving fvpd's
// original single-process semantics exactly) and the crash-safe file
// backends in store/disk (an fsync'd append-only record log with
// CRC-framed entries, periodic snapshot+compaction, and an atomic-rename
// blob archive) — so a daemon restart no longer loses queued jobs or
// evicts the whole cache.
//
// The service is the only writer, and it calls each store from several
// goroutines at once (its workers put results concurrently), so every
// implementation must be safe for concurrent use. All exported
// implementations are self-locking.
package store

import (
	"errors"
	"io"
)

// Job lifecycle states as persisted by a JobStore. They mirror the
// service's externally visible states; only JobQueued and JobRunning are
// recoverable (a crash re-dispatches them), the rest are terminal. The
// service writes no JobRunning record, but logs written by earlier
// binaries hold it, so recovery accepts it.
const (
	JobQueued   = "queued"
	JobRunning  = "running"
	JobDone     = "done"
	JobFailed   = "failed"
	JobCanceled = "canceled"
)

// TerminalJobState reports whether a persisted job state will never
// change again (and so is dropped by compaction rather than recovered).
func TerminalJobState(state string) bool {
	return state == JobDone || state == JobFailed || state == JobCanceled
}

// ErrNotFound is returned by BlobStore.Open for a key that was never
// published (or was deleted).
var ErrNotFound = errors.New("store: not found")

// JobRecord is the durable form of one admitted run: enough to re-admit
// the job after a crash under its original identity. Spec is the encoded
// submission request and is opaque to the store.
type JobRecord struct {
	// ID is the monotonic job number assigned by JobStore.NextID. IDs
	// never repeat across process lifetimes of the same store directory.
	ID uint64
	// Key is the content-addressed spec key the service deduplicates on.
	Key string
	// Tenant attributes the job to its submitter for admission control;
	// recovery re-admits the job under the same tenant.
	Tenant string
	// Spec is the encoded run request (JSON on the wire today).
	Spec []byte
	// State is one of the Job* constants.
	State string
	// Error carries the failure reason for terminal failed/canceled jobs.
	Error string
}

// JobStore persists the run queue's lifecycle: which runs were admitted,
// which finished, and — the part that matters after a crash — which were
// still queued or running when the process died.
type JobStore interface {
	// NextID returns the next monotonic job ID. Durable backends
	// guarantee monotonicity across restarts (the high-water mark rides
	// along with enqueue records and compaction marks), so a recovered
	// job never collides with a fresh one.
	NextID() uint64
	// Enqueue durably records an admitted job in state JobQueued. The
	// record must be recoverable once Enqueue returns.
	Enqueue(rec JobRecord) error
	// AppendBatch durably records a batch of admitted jobs in state
	// JobQueued, all-or-nothing: when it returns nil every record is
	// recoverable; on error none are (the service refuses the whole
	// batch). Disk backends amortize the batch into a single fsync,
	// which is what makes micro-batched admission cheap.
	AppendBatch(recs []JobRecord) error
	// SetState durably moves a job to state, with an optional error text
	// for terminal failures. Unknown IDs are ignored (the job may have
	// been compacted away).
	SetState(id uint64, state, errMsg string) error
	// Recover returns the jobs whose last durable state was queued or
	// running, in enqueue order — the work a crash interrupted. It
	// reflects the state found when the store was opened plus any
	// lifecycle calls since, and never returns terminal jobs.
	Recover() []JobRecord
	// Stats reports the backend's record/byte/compaction counters.
	Stats() Stats
	Close() error
}

// ResultStore is the content-addressed result cache: spec key → encoded
// result record, with LRU eviction bounded by entry count and (optionally)
// by total bytes. Byte accounting covers both the spec key and the
// encoded result, so fvpd_cache_bytes reflects what the cache actually
// holds rather than a bare entry count.
type ResultStore interface {
	// Get returns the record for key and bumps its recency.
	Get(key string) ([]byte, bool)
	// Has reports presence without a recency bump (capacity pre-checks).
	Has(key string) bool
	// Put inserts or refreshes a record, evicting least-recently-used
	// entries beyond the configured caps.
	Put(key string, value []byte) error
	// Len is the number of records currently held.
	Len() int
	// Stats reports record/byte/compaction counters; Stats().Bytes is
	// the sum of len(key)+len(value) over live records.
	Stats() Stats
	Close() error
}

// BlobStore archives large artifacts (pipeline traces, telemetry sample
// streams) under flat keys. Writes are all-or-nothing: a crash mid-Put
// never publishes a partial blob.
type BlobStore interface {
	// Put atomically publishes data under key, replacing any previous
	// blob with that key.
	Put(key string, data []byte) error
	// Open streams a published blob; ErrNotFound if key was never
	// published.
	Open(key string) (io.ReadCloser, error)
	// Has reports whether key is published.
	Has(key string) bool
	// List returns the published keys in unspecified order.
	List() []string
	// Stats reports blob count and total bytes.
	Stats() Stats
	Close() error
}

// Stats is a point-in-time snapshot of one backend's counters, exposed
// through fvpd's /v1/metrics as the fvpd_store_* family.
type Stats struct {
	// Records is the number of live records (jobs retained, cache
	// entries, or blobs).
	Records int `json:"records"`
	// Bytes is the live payload footprint: log-record payloads for jobs,
	// key+value bytes for results, file bytes for blobs.
	Bytes int64 `json:"bytes"`
	// Appends counts durable mutations since the store opened (log
	// appends on disk, state mutations in memory).
	Appends uint64 `json:"appends"`
	// Compactions counts snapshot+compaction rewrites since open (always
	// 0 for the memory backends).
	Compactions uint64 `json:"compactions"`
	// Recovered counts records found live when the store was opened
	// (always 0 for the memory backends).
	Recovered uint64 `json:"recovered"`
}

// Stores bundles one backend of each kind; internal/simd.Config embeds
// it, with nil fields defaulting to the in-memory implementations.
type Stores struct {
	Jobs    JobStore
	Results ResultStore
	Blobs   BlobStore
}

// Close closes all three backends, returning the first error.
func (s Stores) Close() error {
	var first error
	for _, c := range []io.Closer{s.Jobs, s.Results, s.Blobs} {
		if c == nil {
			continue
		}
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
