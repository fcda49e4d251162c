package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"fvp/internal/simd"
)

// opStats summarises the ops of segments of closed-loop load.
type opStats struct {
	attempted, failed int
	// latMS holds each op's latency; a failed op counts as +Inf, missing
	// any latency limit.
	latMS []float64
	// wall is the segments' length, each from its start to its last op's
	// end.
	wall time.Duration
	// insts sums input.insts over the completed ops.
	insts uint64
	// ipc is the IPC of each input's result, where replies carry one.
	ipc  map[string]float64
	errs []string
}

func (s *opStats) opsPerSec() float64 {
	return float64(s.attempted-s.failed) / s.wall.Seconds()
}

// scale divides every latency by factor.
func (s *opStats) scale(factor float64) {
	for i := range s.latMS {
		s.latMS[i] /= factor
	}
}

// closedLoopRate is the rate at which that many closed-loop clients
// complete ops, by Little's law: clients over the mean latency of a
// completed op. Unlike opsPerSec it leaves out the pauses between
// segments.
func (s *opStats) closedLoopRate(clients int) float64 {
	return float64(clients) / (s.meanMS() / 1e3)
}

// meanMS is the mean latency of the completed ops.
func (s *opStats) meanMS() float64 {
	var sum float64
	n := 0
	for _, l := range s.latMS {
		if !math.IsInf(l, 1) {
			sum += l
			n++
		}
	}
	return sum / float64(n)
}

// merge adds b's ops and wall time to s.
func (s *opStats) merge(b *opStats) {
	s.attempted += b.attempted
	s.failed += b.failed
	s.wall += b.wall
	s.insts += b.insts
	s.latMS = append(s.latMS, b.latMS...)
	s.errs = append(s.errs, b.errs...)
	if s.ipc == nil {
		s.ipc = map[string]float64{}
	}
	for k, v := range b.ipc {
		s.ipc[k] = v
	}
}

// feeder hands out the ops of one timed phase. The inputs are cut into
// blocks of the same mix (see blockOf) and a phase runs whole blocks only,
// so every run measures the same mix whatever the seed and however fast
// the program is. A new block starts only while the phase is expected to
// end within dur: its elapsed time plus the mean time of a block so far.
// The first block always runs; dur 0 sets no limit.
//
// A phase may be cut into segments of at least seg, one drive call each,
// so that the host can be probed between them (see prober). A segment
// ends at an op boundary, the phase at a block boundary.
type feeder struct {
	block  int
	unique bool
	dur    time.Duration
	seg    time.Duration
	// next is the cursor into the inputs, which phases of one run share;
	// with unique set a phase ends when it reaches their end, otherwise
	// it wraps around.
	next *int
	// first is the cursor where the phase began.
	first int

	mu       sync.Mutex
	elapsed  time.Duration // the finished segments' time
	segStart time.Time
	segOver  bool
	stopped  bool
}

func newFeeder(ins []input, unique bool, dur, seg time.Duration, next *int) *feeder {
	return &feeder{block: blockOf(ins), unique: unique, dur: dur, seg: seg, next: next, first: *next}
}

func (f *feeder) take(n int) (int, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopped || f.segOver {
		return 0, false
	}
	i := *f.next
	if f.unique && i >= n {
		f.stopped = true
	}
	if done := (i - f.first) / f.block; !f.stopped && f.dur > 0 && i%f.block == 0 && done > 0 {
		el := f.elapsed + time.Since(f.segStart)
		f.stopped = el+el/time.Duration(done) > f.dur
	}
	f.segOver = f.seg > 0 && time.Since(f.segStart) >= f.seg
	if f.stopped || f.segOver {
		return 0, false
	}
	*f.next = i + 1
	return i % n, true
}

// done reports whether the phase is over.
func (f *feeder) done() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stopped
}

// drive runs one segment of f's phase: sys's clients run in a closed
// loop, each taking the next input, performing the op, checking its output
// against expected, and repeating, until f stops handing out ops. Each op
// tr traces is an "op" span that its layers' spans hang under.
func drive(ctx context.Context, sys *system, ins []input, expected map[string]string, f *feeder, tr *tracer) *opStats {
	f.mu.Lock()
	start := time.Now()
	f.segStart, f.segOver = start, false
	f.mu.Unlock()
	per := make([]opStats, sys.clients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(st *opStats) {
			defer wg.Done()
			st.ipc = map[string]float64{}
			for ctx.Err() == nil {
				i, ok := f.take(len(ins))
				if !ok {
					return
				}
				in := &ins[i]
				opCtx := ctx
				var op span
				key := simd.SpecKey(in.spec)
				traced, done := tr.traceOp(key)
				if traced {
					op = span{Name: "op", Key: key, ID: tr.newID()}
					opCtx = withParent(ctx, op.ID)
				}
				t0 := time.Now()
				r, err := sys.do(opCtx, in)
				t1 := time.Now()
				done()
				if traced {
					tr.add(op, t0, t1)
				}
				st.attempted++
				var matched bool
				var ipc float64
				if err == nil {
					matched, ipc, err = sys.check(r, expected[in.key])
				}
				if err == nil && !matched {
					err = fmt.Errorf("result differs from the expected output")
				}
				if err != nil {
					st.failed++
					st.latMS = append(st.latMS, math.Inf(1))
					if len(st.errs) < 3 {
						st.errs = append(st.errs, in.key+": "+err.Error())
					}
					continue
				}
				st.latMS = append(st.latMS, float64(t1.Sub(t0).Nanoseconds())/1e6)
				st.insts += in.insts
				if ipc != 0 {
					st.ipc[in.key] = ipc
				}
			}
		}(&per[c])
	}
	wg.Wait()
	out := &opStats{}
	for i := range per {
		out.merge(&per[i])
	}
	out.wall = time.Since(start)
	f.mu.Lock()
	f.elapsed += out.wall
	f.mu.Unlock()
	return out
}
