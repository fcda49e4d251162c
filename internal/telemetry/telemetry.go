// Package telemetry turns the ooo core's observability taps into run
// artifacts: an interval Sampler that converts cycle-loop snapshots into a
// time series of per-interval metric deltas (IPC, coverage, stall
// composition, window occupancy), and a PipeTrace that records bounded
// per-instruction stage timelines and exports them as Chrome trace-event
// JSON loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Both are pure consumers of ooo.Observer / ooo.PipeTracer callbacks: they
// never feed anything back into the timing model, and the golden-stat tests
// hold the simulated machine byte-identical with either attached.
package telemetry

import (
	"fvp/internal/ooo"
	"fvp/internal/vp"
)

// Sample is one completed sampling interval: every counter is the delta over
// [StartCycle, EndCycle), occupancies are point readings at EndCycle. The
// JSON form is the wire schema of fvpsim -intervals and the fvpd progress
// feed. Summing any counter field over a run's samples reproduces the run's
// final total exactly (enforced by TestSamplerDeltasSumToTotals).
type Sample struct {
	StartCycle uint64 `json:"start_cycle"`
	EndCycle   uint64 `json:"end_cycle"`

	// Insts is the number of instructions retired in the interval; IPC is
	// Insts over the interval's cycles.
	Insts uint64  `json:"insts"`
	IPC   float64 `json:"ipc"`

	// Loads / PredictedLoads give the interval's coverage; Correct / Wrong
	// its validation accuracy. Coverage and Accuracy are the derived
	// ratios (0 when the denominator is 0).
	Loads          uint64  `json:"loads"`
	PredictedLoads uint64  `json:"predicted_loads"`
	Correct        uint64  `json:"correct"`
	Wrong          uint64  `json:"wrong"`
	Coverage       float64 `json:"coverage"`
	Accuracy       float64 `json:"accuracy"`

	VPFlushes         uint64 `json:"vp_flushes"`
	BranchMispredicts uint64 `json:"branch_mispredicts"`
	Forwards          uint64 `json:"forwards"`

	// SkippedCycles is the interval's share of idle-elided cycles — a
	// simulator-speed meter, not a machine property: every skipped cycle is
	// still counted in the interval length and breakdown, and the field is 0
	// under ooo.Config.DisableIdleElision.
	SkippedCycles uint64 `json:"skipped_cycles"`

	// CycleBreakdown attributes the interval's cycles to the 9 top-down
	// buckets (see ooo.BucketNames); buckets sum to EndCycle-StartCycle.
	CycleBreakdown ooo.CycleBreakdown `json:"cycle_breakdown"`

	// Occupancy meters at the sample instant.
	ROBOcc int `json:"rob_occ"`
	IQOcc  int `json:"iq_occ"`
	LQOcc  int `json:"lq_occ"`
	SQOcc  int `json:"sq_occ"`
}

// Sampler accumulates interval samples from an observed core. It implements
// ooo.Observer: the attach callback records the baseline, every subsequent
// callback emits the delta since the previous one. Zero-length callbacks
// (FinishObservation landing on an interval boundary) are dropped, so the
// sample list always partitions the observed region exactly.
type Sampler struct {
	// OnSample, if set, is invoked with each completed interval (on the
	// simulating goroutine — it must not block).
	OnSample func(Sample)
	// Discard drops samples after OnSample instead of retaining them, for
	// long-running streaming consumers that must not grow memory.
	Discard bool

	attached  bool
	prevStats ooo.RunStats
	prevMeter vp.Meter
	samples   []Sample
}

// NewSampler returns a retaining sampler.
func NewSampler() *Sampler { return &Sampler{} }

// OnInterval implements ooo.Observer.
func (s *Sampler) OnInterval(snap ooo.IntervalSnapshot) {
	if !s.attached {
		s.attached = true
		s.prevStats = *snap.Stats
		s.prevMeter = *snap.Meter
		return
	}
	if snap.Stats.Cycles == s.prevStats.Cycles {
		return
	}
	st, mt := snap.Stats, snap.Meter
	sm := Sample{
		StartCycle:        s.prevStats.Cycles,
		EndCycle:          st.Cycles,
		Insts:             st.Retired - s.prevStats.Retired,
		Loads:             mt.Loads - s.prevMeter.Loads,
		PredictedLoads:    mt.PredictedLoads - s.prevMeter.PredictedLoads,
		Correct:           mt.Correct - s.prevMeter.Correct,
		Wrong:             mt.Wrong - s.prevMeter.Wrong,
		VPFlushes:         st.VPFlushes - s.prevStats.VPFlushes,
		BranchMispredicts: st.BranchMispredicts - s.prevStats.BranchMispredicts,
		Forwards:          st.Forwards - s.prevStats.Forwards,
		SkippedCycles:     st.SkippedCycles - s.prevStats.SkippedCycles,
		ROBOcc:            snap.ROBOcc,
		IQOcc:             snap.IQOcc,
		LQOcc:             snap.LQOcc,
		SQOcc:             snap.SQOcc,
	}
	for i := range sm.CycleBreakdown {
		sm.CycleBreakdown[i] = st.Breakdown[i] - s.prevStats.Breakdown[i]
	}
	sm.IPC = float64(sm.Insts) / float64(sm.EndCycle-sm.StartCycle)
	if sm.Loads > 0 {
		sm.Coverage = float64(sm.PredictedLoads) / float64(sm.Loads)
	}
	if v := sm.Correct + sm.Wrong; v > 0 {
		sm.Accuracy = float64(sm.Correct) / float64(v)
	}
	s.prevStats = *st
	s.prevMeter = *mt
	if s.OnSample != nil {
		s.OnSample(sm)
	}
	if !s.Discard {
		s.samples = append(s.samples, sm)
	}
}

// Samples returns the retained time series in emission order.
func (s *Sampler) Samples() []Sample { return s.samples }

// Reset clears the sampler for reuse on a fresh observed region.
func (s *Sampler) Reset() {
	s.attached = false
	s.samples = s.samples[:0]
}

// Totals sums the retained samples' counters — the cross-check that interval
// deltas reproduce end-of-run totals.
type Totals struct {
	Cycles, Insts, Loads, PredictedLoads, Correct, Wrong uint64
	VPFlushes, BranchMispredicts, Forwards               uint64
	SkippedCycles                                        uint64
	CycleBreakdown                                       ooo.CycleBreakdown
}

// Totals aggregates the retained samples.
func (s *Sampler) Totals() Totals {
	var t Totals
	for _, sm := range s.samples {
		t.Cycles += sm.EndCycle - sm.StartCycle
		t.Insts += sm.Insts
		t.Loads += sm.Loads
		t.PredictedLoads += sm.PredictedLoads
		t.Correct += sm.Correct
		t.Wrong += sm.Wrong
		t.VPFlushes += sm.VPFlushes
		t.BranchMispredicts += sm.BranchMispredicts
		t.Forwards += sm.Forwards
		t.SkippedCycles += sm.SkippedCycles
		for i := range t.CycleBreakdown {
			t.CycleBreakdown[i] += sm.CycleBreakdown[i]
		}
	}
	return t
}
