package ooo

import (
	"fvp/internal/isa"
	"fvp/internal/vp"
)

// This file is the core's observability surface: an interval Observer the
// cycle loop samples on a fixed cadence, and a PipeTracer that receives
// per-instruction stage events. Both are strictly read-only taps — they see
// pointers into live state but the core never lets them change its timing —
// and both are engineered to cost nothing when unset: the observer check is
// one uint64 compare per cycle against a sentinel that never fires, and every
// tracer call site is behind a nil guard. TestObserverNonPerturbing pins the
// golden-stat matrix byte-identical with an observer attached.

// DefaultObserverInterval is the sampling cadence when SetObserver is given
// an interval of 0: fine enough to resolve phase behavior over a 300k-inst
// measured region, coarse enough that sampling cost is unmeasurable.
const DefaultObserverInterval = 10_000

// IntervalSnapshot is the core state handed to an Observer at each sample
// point. Stats and Meter point at the core's live accumulators and are only
// valid for the duration of the callback; observers that retain data must
// copy it.
type IntervalSnapshot struct {
	// Cycle is the core's current cycle (same clock as Stats.Cycles).
	Cycle uint64
	// Stats is the cumulative run-stat accumulator since core construction.
	Stats *RunStats
	// Meter is the cumulative value-prediction meter.
	Meter *vp.Meter
	// ROBOcc/IQOcc/LQOcc/SQOcc are the window occupancies at the sample
	// instant.
	ROBOcc, IQOcc, LQOcc, SQOcc int
}

// Observer receives interval snapshots from the cycle loop. The first
// callback fires from SetObserver itself (the attach baseline, before any
// observed cycle); subsequent ones fire every interval cycles, and
// FinishObservation delivers a final snapshot so partial tail intervals are
// not lost. Observers run on the simulating goroutine and must not block.
type Observer interface {
	OnInterval(IntervalSnapshot)
}

// TraceEvent tags one PipeTracer callback.
type TraceEvent uint8

// Pipeline trace events, in the order a micro-op experiences them.
const (
	// EvFetch: the micro-op entered the fetch buffer (fires again on
	// flush-replay refetch).
	EvFetch TraceEvent = iota
	// EvRename: renamed into the window.
	EvRename
	// EvIssue: left the issue queue for an execution port.
	EvIssue
	// EvComplete: result produced (writeback); cycle is the completion time.
	EvComplete
	// EvRetire: committed in order.
	EvRetire
	// EvPredict: a value prediction was accepted at rename; arg is the
	// predicted value (0 for store-linked predictions still in flight).
	EvPredict
	// EvVPCorrect / EvVPWrong: prediction validated at completion.
	EvVPCorrect
	EvVPWrong
	// EvFlush: the window was squashed from d's position; arg is the number
	// of squashed window entries. d may be nil when the flush point already
	// left the window.
	EvFlush
)

// PipeTracer receives per-instruction pipeline stage events. d points at the
// live window entry and is only valid for the duration of the call. Tracers
// run on the simulating goroutine; implementations bound their own memory.
type PipeTracer interface {
	PipeEvent(ev TraceEvent, cycle uint64, d *isa.DynInst, arg uint64)
}

// SetObserver attaches (or, with nil, detaches) an interval observer. An
// interval of 0 selects DefaultObserverInterval. Attaching immediately
// delivers one snapshot — the baseline the first interval's deltas are
// measured against — so an observer attached mid-run (the harness attaches
// after warmup) sees only the region it observed.
func (c *Core) SetObserver(o Observer, interval uint64) {
	c.obs = o
	if o == nil {
		c.obsInterval = 0
		c.nextSample = ^uint64(0)
		return
	}
	if interval == 0 {
		interval = DefaultObserverInterval
	}
	c.obsInterval = interval
	c.nextSample = c.Stats.Cycles + interval
	o.OnInterval(c.snapshot())
}

// FinishObservation delivers the final (possibly partial) interval snapshot.
// Callers invoke it after the last Run/RunCtx call of an observed region;
// the observer is left attached.
func (c *Core) FinishObservation() {
	if c.obs == nil {
		return
	}
	c.obs.OnInterval(c.snapshot())
	c.nextSample = c.Stats.Cycles + c.obsInterval
}

// SetTracer attaches (or, with nil, detaches) a pipeline tracer.
func (c *Core) SetTracer(t PipeTracer) { c.trc = t }

func (c *Core) snapshot() IntervalSnapshot {
	return IntervalSnapshot{
		Cycle:  c.Stats.Cycles,
		Stats:  &c.Stats,
		Meter:  &c.Meter,
		ROBOcc: c.count,
		IQOcc:  c.iqCount,
		LQOcc:  c.lqCount,
		SQOcc:  c.sqCount,
	}
}

// sample fires the due interval callback; the cycle loop calls it through a
// single always-false-when-detached compare on nextSample.
func (c *Core) sample() {
	c.obs.OnInterval(c.snapshot())
	c.nextSample = c.Stats.Cycles + c.obsInterval
}
