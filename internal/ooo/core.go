package ooo

import (
	"fvp/internal/branch"
	"fvp/internal/isa"
	"fvp/internal/memdep"
	"fvp/internal/memsys"
	"fvp/internal/prog"
	"fvp/internal/vp"
)

// InstSource supplies the dynamic instruction stream (prog.Exec implements
// it; trace replays do too).
type InstSource interface {
	Next(*isa.DynInst) bool
}

// instruction states inside the window.
const (
	sWaiting   uint8 = iota // in IQ, sources not all available
	sWaitStore              // load matched an older store whose data is pending
	sIssued                 // executing, doneAt set (0 for stores awaiting data)
	sDone                   // result available
)

// fetchEnt is a fetched-but-not-renamed micro-op. Replayed entries keep the
// branch outcome and history snapshot from their first fetch so predictors
// are not double-trained on flush replay.
type fetchEnt struct {
	d        isa.DynInst
	readyAt  uint64
	mispred  bool
	histSnap uint64
	replayed bool
}

// Core is the cycle-level out-of-order machine.
type Core struct {
	cfg  Config
	hier *memsys.Hierarchy
	bu   *branch.Unit
	ss   *memdep.StoreSets
	pred vp.Predictor
	ctx  vp.Ctx

	src     InstSource
	srcDone bool
	// replay/fetchQ are consumed from rpHead/fqHead instead of re-slicing,
	// so the backing arrays are reused instead of reallocated as the
	// queues drain and refill.
	replay  []fetchEnt // flush replay queue (oldest first)
	rpHead  int
	fetchQ  []fetchEnt
	fqHead  int
	pending *fetchEnt // fetched from source but stalled on the I-cache
	// fetchScratch backs nextInst's non-pending returns so fetching does
	// not heap-allocate per micro-op. pending may point here; it is always
	// consumed before nextInst overwrites the scratch.
	fetchScratch fetchEnt

	// w is the struct-of-arrays reorder buffer (see soa.go); head/count
	// are the circular-buffer cursors over its slots.
	w     window
	head  int
	count int

	// Rename state: per architectural register, the in-flight producer
	// and the last-writer PC (speculative + retired images for repair).
	regProd  [isa.NumArchRegs]srcDep
	regPC    [isa.NumArchRegs]uint64
	retRegPC [isa.NumArchRegs]uint64

	// Occupancy counters for the LQ/SQ/IQ partitions of the window. These
	// are the slab occupancy counters the Observer samples — occupancy is
	// maintained incrementally at rename/retire/flush, never by walking
	// window structures.
	lqCount, sqCount, iqCount int

	now             uint64
	fetchStallUntil uint64
	lastFetchLine   uint64
	// redirect: fetch stalls behind an unresolved mispredicted branch.
	redirectSeq    uint64
	redirectActive bool

	// shadow is the retired architectural memory image (DLVP's early
	// probe target); overlayed on top of the program's initial image.
	shadow *prog.Memory

	// oracle criticality: PC set populated by backward walks from
	// retirement stalls, cleared on the same epoch cadence as the CIT.
	oracleSet    []uint16
	oracleMask   uint64
	lastStallSeq uint64
	retiredCount uint64

	// mispredicting-branch chain PCs (§VI-A3 signal).
	brChain     []uint16
	brChainMask uint64

	// Event-driven scheduler state (see sched.go).
	readyQ     []schedRef   // waiting entries that may issue
	issueCand  []schedRef   // per-cycle scratch: readyQ in window order
	deps       [][]schedRef // per-slot subscribers woken at completion
	done       doneHeap     // scheduled completions
	pendStores []schedRef   // issued stores awaiting their data operand
	waiters    []schedRef   // loads deferred behind an older store
	wbCand     []schedRef   // per-cycle scratch for stageWriteback
	ldWin      seqRing      // in-window loads, program order
	stWin      seqRing      // in-window stores, program order
	squashBuf  []fetchEnt   // applyFlush scratch, swapped with replay

	// Observability taps (see observer.go). nextSample is the cycle the
	// next interval sample is due; ^0 when no observer is attached, so the
	// per-cycle check is one compare that never fires.
	obs         Observer
	obsInterval uint64
	nextSample  uint64
	trc         PipeTracer

	// Idle-cycle elision (see elide.go). elide caches the effective switch
	// (build tag AND config); activity is reset at the top of every cycle
	// and set by any stage action that can change future machine state —
	// the cycle loop may clock-jump only when a cycle ends with no
	// activity and an empty ready queue.
	elide    bool
	activity bool

	Meter vp.Meter
	Stats RunStats
}

// RunStats aggregates timing-model events.
type RunStats struct {
	Cycles        uint64
	Retired       uint64
	RetiredLoads  uint64
	RetiredStores uint64
	Fetched       uint64

	BranchMispredicts uint64
	VPFlushes         uint64
	MemOrderFlushes   uint64
	Forwards          uint64

	RetireStallCycles uint64
	EmptyWindowCycles uint64

	LoadsByLevel [4]uint64
	// StallHeadLoads/StallHeadOther classify retirement-stall cycles by
	// whether the blocking (oldest unfinished) instruction is a load.
	StallHeadLoads uint64
	StallHeadOther uint64
	// Breakdown attributes every simulated cycle to one top-down bucket.
	Breakdown CycleBreakdown

	// SkippedCycles counts the cycles the loop clock-jumped instead of
	// ticking (always a subset of Cycles; 0 under Config.DisableIdleElision)
	// and SkipEvents the number of jumps. They
	// describe the simulator, not the simulated machine: every skipped
	// cycle is still present in Cycles and the stall breakdown, which stay
	// byte-identical to the ticking loop.
	SkippedCycles uint64
	SkipEvents    uint64
}

// Stall buckets for the top-down cycle accounting.
const (
	// CycRetiring: at least one instruction committed this cycle.
	CycRetiring = iota
	// CycMemL1..CycMemDRAM: retirement blocked by a load in flight to
	// the given level.
	CycMemL1
	CycMemL2
	CycMemLLC
	CycMemDRAM
	// CycStoreFwd: retirement blocked by a load waiting on a store's data.
	CycStoreFwd
	// CycExec: retirement blocked by a non-load executing (ALU/FP chain).
	CycExec
	// CycDependency: the head has not even issued (waiting on sources or
	// structural back-pressure).
	CycDependency
	// CycFrontend: the window is empty (fetch stalls: redirects, I-cache
	// misses, flush refills).
	CycFrontend
	numCycleBuckets
)

// CycleBreakdown counts cycles per bucket; it sums to Cycles.
type CycleBreakdown [numCycleBuckets]uint64

// BucketNames labels the breakdown in reports.
var BucketNames = [numCycleBuckets]string{
	"retiring", "mem-L1", "mem-L2", "mem-LLC", "mem-DRAM",
	"store-fwd", "exec", "dependency", "frontend",
}

// IPC returns retired instructions per cycle.
func (s *RunStats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// New builds a core. pred may be nil for the no-value-prediction baseline.
// initMem is the program's initial memory image used to answer early-probe
// reads (the core clones it; the caller's copy is not modified).
func New(cfg Config, pred vp.Predictor, src InstSource, initMem *prog.Memory) *Core {
	if pred == nil {
		pred = vp.None{}
	}
	c := &Core{
		cfg:  cfg,
		hier: memsys.New(cfg.Mem),
		bu:   branch.NewDefaultUnit(),
		ss:   memdep.New(cfg.SSITBits, cfg.LFSTBits),
		pred: pred,
		src:  src,
	}
	c.w.init(cfg.ROBSize)
	if initMem != nil {
		c.shadow = initMem.Clone()
	} else {
		c.shadow = prog.NewMemory()
	}
	const oracleEntries = 1024
	c.oracleSet = make([]uint16, oracleEntries)
	c.oracleMask = oracleEntries - 1
	const brChainEntries = 256
	c.brChain = make([]uint16, brChainEntries)
	c.brChainMask = brChainEntries - 1

	c.deps = make([][]schedRef, cfg.ROBSize)
	c.ldWin.init(cfg.LQSize)
	c.stWin.init(cfg.SQSize)
	c.nextSample = ^uint64(0)
	c.elide = !cfg.DisableIdleElision

	c.ctx.MemPeek = c.shadow.Read
	c.ctx.CacheLevel = func(addr uint64) int { return int(c.hier.ProbeLevel(addr)) }
	return c
}

// Reset restores the core to the state New produces for the same config with
// the given predictor, instruction source and initial memory image, reusing
// every allocation (window slabs, caches, predictor tables, scheduler
// queues). A reset core must be observationally identical to a fresh one —
// the harness pools cores across runs on the strength of that equivalence,
// and TestResetEquivalence enforces it.
func (c *Core) Reset(pred vp.Predictor, src InstSource, initMem *prog.Memory) {
	if pred == nil {
		pred = vp.None{}
	}
	c.hier.Reset()
	c.bu.Reset()
	c.ss.Reset()
	c.pred = pred
	c.src = src
	c.srcDone = false

	c.replay = c.replay[:0]
	c.rpHead = 0
	c.fetchQ = c.fetchQ[:0]
	c.fqHead = 0
	c.pending = nil
	c.fetchScratch = fetchEnt{}

	c.w.reset()
	c.head = 0
	c.count = 0
	c.regProd = [isa.NumArchRegs]srcDep{}
	c.regPC = [isa.NumArchRegs]uint64{}
	c.retRegPC = [isa.NumArchRegs]uint64{}
	c.lqCount, c.sqCount, c.iqCount = 0, 0, 0

	c.now = 0
	c.fetchStallUntil = 0
	c.lastFetchLine = 0
	c.redirectSeq = 0
	c.redirectActive = false

	if initMem != nil {
		c.shadow = initMem.Clone()
	} else {
		c.shadow = prog.NewMemory()
	}
	clear16(c.oracleSet)
	c.lastStallSeq = 0
	c.retiredCount = 0
	clear16(c.brChain)

	c.readyQ = c.readyQ[:0]
	c.issueCand = c.issueCand[:0]
	for i := range c.deps {
		c.deps[i] = c.deps[i][:0]
	}
	c.done = c.done[:0]
	c.pendStores = c.pendStores[:0]
	c.waiters = c.waiters[:0]
	c.wbCand = c.wbCand[:0]
	c.ldWin.init(c.cfg.LQSize)
	c.stWin.init(c.cfg.SQSize)
	c.squashBuf = c.squashBuf[:0]

	c.obs = nil
	c.obsInterval = 0
	c.nextSample = ^uint64(0)
	c.trc = nil
	c.activity = false // elide is config-derived and survives Reset

	c.Meter = vp.Meter{}
	c.Stats = RunStats{}

	c.ctx = vp.Ctx{}
	c.ctx.MemPeek = c.shadow.Read
	c.ctx.CacheLevel = func(addr uint64) int { return int(c.hier.ProbeLevel(addr)) }
}

// WarmCaches pre-installs the program's steady-state ranges into the
// hierarchy so the measured region is not dominated by compulsory misses.
func (c *Core) WarmCaches(ranges []prog.WarmRange) {
	for _, r := range ranges {
		lvl := memsys.Level(r.Level)
		if lvl < memsys.LvlL1 || lvl > memsys.LvlLLC {
			continue
		}
		c.hier.Warm(r.Base, r.Bytes, lvl)
	}
}

// Hierarchy exposes the memory system for inspection (tests, stats).
func (c *Core) Hierarchy() *memsys.Hierarchy { return c.hier }

// Branch exposes the branch unit for inspection.
func (c *Core) Branch() *branch.Unit { return c.bu }

// StoreSets exposes the disambiguation predictor for inspection.
func (c *Core) StoreSets() *memdep.StoreSets { return c.ss }

func (c *Core) idx(i int) int { return (c.head + i) % len(c.w.inst) }

// distFromHead returns the window position of rob slot ri (0 = head).
func (c *Core) distFromHead(ri int) int {
	return (ri - c.head + len(c.w.inst)) % len(c.w.inst)
}

// destAvail reports when slot i's register result is usable by consumers,
// accounting for value prediction (including MR store links).
func (c *Core) destAvail(i int) (uint64, bool) {
	avail := ^uint64(0)
	ok := false
	if c.w.state[i] == sDone {
		avail, ok = c.w.doneAt[i], true
	}
	if c.w.flags[i]&fPredicted != 0 {
		p := &c.w.pred[i]
		if p.link >= 0 {
			li := int(p.link)
			if c.w.seq[li] == p.linkSeq {
				if c.w.state[li] == sDone {
					if da := c.w.doneAt[li]; !ok || da < avail {
						avail, ok = da, true
					}
				}
			} else {
				// Linked store already retired: data was ready
				// no later than the link's own availability.
				if !ok || p.availAt < avail {
					avail, ok = p.availAt, true
				}
			}
		} else if !ok || p.availAt < avail {
			avail, ok = p.availAt, true
		}
	}
	return avail, ok
}

// srcReady reports whether source s of slot i is available at cycle now,
// and the cycle it became available.
func (c *Core) srcReady(i, s int, now uint64) (uint64, bool) {
	d := &c.w.src[2*i+s]
	if !d.hasProd {
		return d.availAt, d.availAt <= now
	}
	pi := int(d.prodIdx)
	if c.w.seq[pi] != d.prodSeq {
		// Producer retired (slot recycled): value long available.
		d.hasProd = false
		d.availAt = 0
		return 0, true
	}
	avail, ok := c.destAvail(pi)
	if ok && avail <= now {
		return avail, true
	}
	return avail, false
}

// ready reports whether all sources of slot i are available at now; it also
// records the last-arriving producer for criticality walks.
func (c *Core) ready(i int, now uint64) bool {
	var latest uint64
	latestProd := int32(-1)
	for s := 0; s < 2; s++ {
		d := &c.w.src[2*i+s]
		if d.availAt == 0 && !d.hasProd {
			continue
		}
		avail, ok := c.srcReady(i, s, now)
		if !ok {
			return false
		}
		if avail >= latest {
			latest = avail
			// Re-read hasProd: srcReady clears it when the producer
			// retired.
			if d.hasProd {
				latestProd = d.prodIdx
			}
		}
	}
	cold := &c.w.cold[i]
	cold.crit = latestProd
	if latestProd >= 0 {
		cold.critSeq = c.w.seq[latestProd]
	}
	return true
}
