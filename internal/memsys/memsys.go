// Package memsys composes the cache levels, the prefetchers and the DRAM
// controller into the memory hierarchy the core issues accesses to. It is a
// latency-first model: an access returns the core cycle its data is usable
// and the level that supplied it, while the tag/row state it touched
// persists for future accesses.
package memsys

import (
	"fvp/internal/cache"
	"fvp/internal/dram"
)

// Level identifies which part of the hierarchy served an access.
type Level int

// Hierarchy levels, nearest first.
const (
	LvlL1 Level = iota
	LvlL2
	LvlLLC
	LvlMem
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LvlL1:
		return "L1"
	case LvlL2:
		return "L2"
	case LvlLLC:
		return "LLC"
	case LvlMem:
		return "MEM"
	}
	return "?"
}

// Config assembles a hierarchy.
type Config struct {
	L1I, L1D, L2, LLC cache.Config
	Dram              dram.Config
	// StridePCBits sizes the L1 stride prefetcher (2^bits entries);
	// 0 disables it.
	StridePCBits uint
	// StrideDegree is how many strides ahead the L1 prefetcher runs.
	StrideDegree int
	// Streams/StreamDepth configure the L2/LLC stream prefetcher;
	// Streams 0 disables it.
	Streams     int
	StreamDepth int
	// MemReturnCycles is the fixed on-die return-path latency added to a
	// DRAM access before data reaches the core.
	MemReturnCycles uint64
}

// Hierarchy is the assembled memory system. A run takes it fresh from New
// or Reset, installs its steady-state cache image once with WarmRanges,
// and then issues accesses.
type Hierarchy struct {
	L1I, L1D, L2, LLC *cache.Cache
	Dram              *dram.Controller
	stride            *cache.StridePrefetcher
	stream            *cache.StreamPrefetcher
	memReturn         uint64

	// DemandLoads counts data-side demand reads by serving level.
	DemandLoads [4]uint64
}

// New builds the hierarchy from cfg.
func New(cfg Config) *Hierarchy {
	h := &Hierarchy{
		L1I:       cache.New(cfg.L1I),
		L1D:       cache.New(cfg.L1D),
		L2:        cache.New(cfg.L2),
		LLC:       cache.New(cfg.LLC),
		Dram:      dram.New(cfg.Dram),
		memReturn: cfg.MemReturnCycles,
	}
	if cfg.StridePCBits > 0 {
		h.stride = cache.NewStridePrefetcher(cfg.StridePCBits, cfg.StrideDegree)
	}
	if cfg.Streams > 0 {
		h.stream = cache.NewStreamPrefetcher(cfg.Streams, cfg.StreamDepth, cfg.L2.LineBytes)
	}
	return h
}

// Reset restores every component to its just-constructed state so the
// hierarchy can be reused across simulation runs without reallocating the
// (multi-megabyte) line metadata.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
	h.LLC.Reset()
	h.Dram.Reset()
	if h.stride != nil {
		h.stride.Reset()
	}
	if h.stream != nil {
		h.stream.Reset()
	}
	h.DemandLoads = [4]uint64{}
}

// ProbeLevel reports where addr's line currently resides without disturbing
// any state (LvlMem when uncached). Used by criticality heuristics and the
// DLVP-style address predictors that "peek" at the data cache.
func (h *Hierarchy) ProbeLevel(addr uint64) Level {
	switch {
	case h.L1D.Probe(addr):
		return LvlL1
	case h.L2.Probe(addr):
		return LvlL2
	case h.LLC.Probe(addr):
		return LvlLLC
	}
	return LvlMem
}

// Load performs a demand data read for addr at cycle now on behalf of the
// load at pc. It returns the cycle the data is usable and the serving level.
// mshr is passed to every cache Lookup on the way: the pipeline sets it,
// so misses wait for and occupy MSHRs; functional warmup clears it, so
// the walk trains the same tags, LRU, DRAM rows and prefetcher tables
// without modelling memory-level parallelism.
func (h *Hierarchy) Load(now uint64, addr, pc uint64, mshr bool) (done uint64, lvl Level) {
	done, lvl = h.demand(now, addr, false, mshr)
	h.DemandLoads[lvl]++
	if h.stride != nil {
		for _, pa := range h.stride.Observe(pc, addr) {
			h.prefetch(now, pa, true)
		}
	}
	if h.stream != nil && lvl >= LvlL2 {
		for _, pa := range h.stream.Observe(addr) {
			h.prefetch(now, pa, false)
		}
	}
	return done, lvl
}

// Store performs a demand data write for addr at cycle now (write-allocate,
// write-back). Store completion is off the critical path in the core model;
// the returned cycle is when the line was available to accept the write.
// mshr is as for Load.
func (h *Hierarchy) Store(now uint64, addr uint64, mshr bool) (done uint64, lvl Level) {
	return h.demand(now, addr, true, mshr)
}

// Fetch performs an instruction fetch for the line containing pc. mshr is
// as for Load.
func (h *Hierarchy) Fetch(now uint64, pc uint64, mshr bool) (done uint64, lvl Level) {
	hit, when := h.L1I.Lookup(now, pc, false, mshr)
	if hit {
		return when, LvlL1
	}
	ready, lvl := h.belowL1(when, pc, mshr)
	h.L1I.Fill(pc, ready, false, false)
	return ready, lvl
}

// demand walks the data-side hierarchy.
func (h *Hierarchy) demand(now uint64, addr uint64, write, mshr bool) (uint64, Level) {
	hit, when := h.L1D.Lookup(now, addr, write, mshr)
	if hit {
		return when, LvlL1
	}
	ready, lvl := h.belowL1(when, addr, mshr)
	h.L1D.Fill(addr, ready, write, false)
	return ready, lvl
}

// belowL1 resolves a miss that has already been charged the L1 access,
// starting the L2 access at cycle start.
func (h *Hierarchy) belowL1(start uint64, addr uint64, mshr bool) (uint64, Level) {
	hit, when := h.L2.Lookup(start, addr, false, mshr)
	if hit {
		return when, LvlL2
	}
	hit, when3 := h.LLC.Lookup(when, addr, false, mshr)
	if hit {
		h.L2.Fill(addr, when3, false, false)
		return when3, LvlLLC
	}
	memDone := h.Dram.Access(when3, addr) + h.memReturn
	h.LLC.Fill(addr, memDone, false, false)
	h.L2.Fill(addr, memDone, false, false)
	return memDone, LvlMem
}

// prefetch installs addr's line without demand-stats side effects. toL1
// additionally fills the L1D (stride prefetcher); stream prefetches stop at
// the L2/LLC as in the paper's configuration.
func (h *Hierarchy) prefetch(now uint64, addr uint64, toL1 bool) {
	var ready uint64
	switch h.ProbeLevel(addr) {
	case LvlL1:
		return
	case LvlL2:
		if !toL1 {
			return
		}
		ready = now + h.L2.Config().Latency
	case LvlLLC:
		ready = now + h.LLC.Config().Latency
		h.L2.Fill(addr, ready, false, true)
	case LvlMem:
		ready = h.Dram.Access(now, addr) + h.memReturn
		h.LLC.Fill(addr, ready, false, true)
		h.L2.Fill(addr, ready, false, true)
	}
	if toL1 {
		h.L1D.Fill(addr, ready, false, true)
	}
}

// WarmRange asks for the lines of [Base, Base+Bytes) to start resident in
// Level and every level behind it.
type WarmRange struct {
	Base, Bytes uint64
	Level       Level
}

// WarmRanges pre-loads every range, in order, into its level and everything
// below it, with clean data ready at cycle 0. Workload setup uses it to start
// kernels from a steady-state cache image instead of an unrealistically cold
// one. Ranges whose level is not a cache level are ignored.
//
// The L1D, L2 and LLC must be untouched since New or Reset; WarmRanges
// panics otherwise. Each of them ends up bit-identical to filling the lines
// of its ranges one by one with Fill (see cache.Cache.WarmFill).
func (h *Hierarchy) WarmRanges(ranges []WarmRange) {
	spans := make([]cache.Span, 0, len(ranges))
	for _, lv := range [...]struct {
		c   *cache.Cache
		lvl Level
	}{{h.L1D, LvlL1}, {h.L2, LvlL2}, {h.LLC, LvlLLC}} {
		spans = spans[:0]
		for _, r := range ranges {
			if r.Level >= LvlL1 && r.Level <= lv.lvl {
				spans = append(spans, cache.Span{Base: r.Base, Bytes: r.Bytes})
			}
		}
		lv.c.WarmFill(spans)
	}
}
