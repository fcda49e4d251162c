package harness

import (
	"container/list"
	"context"
	"encoding/binary"
	"sync"
	"time"

	"fvp/internal/prog"
)

// scanMemoCap bounds the checkpoint page bytes the scan memo retains; the
// least recently used plans are evicted past it. Tests shrink it.
var scanMemoCap int64 = 64 << 20

// scanMemo holds the checkpoints of recent unit plans, so every arm over
// the same regions of a program (baseline and FVP, each same-area arm,
// each repeat of a spec) restores from one architectural scan. A
// checkpoint is an immutable copy-on-write image that any number of
// goroutines may Restore, so an entry is shared as is.
var scanMemo = struct {
	mu      sync.Mutex
	entries map[scanKey]*scanEntry
	lru     list.List // retained entries, most recently used in front
	bytes   int64     // page bytes of the retained entries
	scans   int       // scans run through the memo (tests read it)
}{entries: make(map[scanKey]*scanEntry)}

// scanKey identifies a plan's scan: the program, by workload name (Build
// yields an identical immutable program on every call), and the exact
// checkpoint positions, 8 bytes each.
type scanKey struct {
	workload string
	at       string
}

// scanEntry is one plan's checkpoints. done closes once cps is set; until
// then the entry is a scan in flight, which later runs of the plan wait
// for instead of scanning again.
type scanEntry struct {
	done  chan struct{}
	cps   []*prog.Checkpoint
	bytes int64
	elem  *list.Element // nil unless retained
}

// checkpointsAt returns an architectural checkpoint of p at each of the
// ascending positions at, and the wall time this run spent getting them.
// A plan that steps no instruction (a plain run's one checkpoint at 0) is
// taken fresh and pins nothing. Any other plan is memoized: the first run
// scans, concurrent runs of the plan wait for that one scan, and later
// runs reuse it until it is evicted.
func checkpointsAt(ctx context.Context, workload string, p *prog.Program, at []uint64) ([]*prog.Checkpoint, time.Duration, error) {
	if at[len(at)-1] == 0 {
		cps, d := scan(p, at)
		return cps, d, nil
	}
	buf := make([]byte, 0, 8*len(at))
	for _, a := range at {
		buf = binary.LittleEndian.AppendUint64(buf, a)
	}
	key := scanKey{workload: workload, at: string(buf)}

	m := &scanMemo
	m.mu.Lock()
	if e, ok := m.entries[key]; ok {
		if e.elem != nil {
			m.lru.MoveToFront(e.elem)
		}
		m.mu.Unlock()
		t0 := time.Now()
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		}
		return e.cps, time.Since(t0), nil
	}
	e := &scanEntry{done: make(chan struct{})}
	m.entries[key] = e
	m.scans++
	m.mu.Unlock()

	var d time.Duration
	e.cps, d = scan(p, at)
	e.bytes = prog.PageBytes(e.cps)
	m.mu.Lock()
	switch {
	case m.entries[key] != e: // the memo was cleared during the scan
	case e.bytes > scanMemoCap:
		delete(m.entries, key)
	default:
		e.elem = m.lru.PushFront(key)
		m.bytes += e.bytes
		for m.bytes > scanMemoCap {
			old := m.lru.Back()
			k := old.Value.(scanKey)
			m.lru.Remove(old)
			m.bytes -= m.entries[k].bytes
			delete(m.entries, k)
		}
	}
	m.mu.Unlock()
	close(e.done)
	return e.cps, d, nil
}

// scan runs p architecturally from its entry and checkpoints it at each
// of the ascending positions at. Only the stepping is timed.
func scan(p *prog.Program, at []uint64) ([]*prog.Checkpoint, time.Duration) {
	ex := prog.NewExec(p)
	cps := make([]*prog.Checkpoint, len(at))
	var d time.Duration
	for i, a := range at {
		if a > ex.Seq() {
			t0 := time.Now()
			ex.Run(a-ex.Seq(), nil)
			d += time.Since(t0)
		}
		cps[i] = ex.Checkpoint()
	}
	return cps, d
}
