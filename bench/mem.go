package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// memSampler follows the memory the Go runtime holds from the OS — all it
// has mapped, less the heap pages it has handed back — which for this
// pure-Go process is its resident set. The process's lifetime peak
// (getrusage ru_maxrss) is one extreme moment, set by whichever large
// simulations and garbage collections happen to coincide, and it moved by
// 10-15% between runs of the same inputs. The peak of each segment of a
// timed phase, and their median, is the same quantity measured many times.
type memSampler struct {
	stop chan struct{}
	done chan struct{}

	mu         sync.Mutex
	last, peak uint64
}

// memSampleEvery is how often the sampler reads the runtime's figures;
// the reads are cheap and need no stop-the-world.
const memSampleEvery = 10 * time.Millisecond

var memSamples = []string{"/memory/classes/total:bytes", "/memory/classes/heap/released:bytes"}

func startMemSampler() *memSampler {
	s := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		ms := make([]metrics.Sample, len(memSamples))
		for i, name := range memSamples {
			ms[i].Name = name
		}
		tick := time.NewTicker(memSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(ms)
			held := ms[0].Value.Uint64() - ms[1].Value.Uint64()
			s.mu.Lock()
			s.last, s.peak = held, max(s.peak, held)
			s.mu.Unlock()
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// takePeakMB returns the most memory held since the last call, in MiB, and
// starts a new interval.
func (s *memSampler) takePeakMB() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.peak
	s.peak = s.last
	return float64(p) / (1 << 20)
}

// close stops the sampler and waits for it.
func (s *memSampler) close() {
	close(s.stop)
	<-s.done
}
