package core

import (
	"fvp/internal/isa"
	"fvp/internal/vp"
)

// CritPolicy selects how FVP decides which instructions are critical roots
// (§VI-C evaluates these alternatives).
type CritPolicy int

const (
	// CritRetireStall is the paper's default: instructions that execute
	// within the commit width of the ROB head are potential roots.
	CritRetireStall CritPolicy = iota
	// CritL1Miss treats every L1 data miss as a root (FVP-L1-Miss).
	CritL1Miss
	// CritL1MissOnly predicts only the L1-missing load itself, without
	// walking its dependence chain (FVP-L1-Miss-Only).
	CritL1MissOnly
	// CritOracle uses the graph-buffering DDG critical path (Oracle
	// Criticality) as the root oracle.
	CritOracle
)

// String names the policy.
func (p CritPolicy) String() string {
	switch p {
	case CritRetireStall:
		return "retire-stall"
	case CritL1Miss:
		return "l1-miss"
	case CritL1MissOnly:
		return "l1-miss-only"
	case CritOracle:
		return "oracle"
	}
	return "?"
}

// Config parameterizes FVP. DefaultConfig reproduces the paper's sizing.
type Config struct {
	// CITEntries sizes the Critical Instruction Table (paper: 32).
	CITEntries int
	// VTEntries/VTWays size the Value Table (paper: 48, 2-way).
	VTEntries int
	VTWays    int
	// LTEntries sizes the Learning Table (paper: 2).
	LTEntries int
	// MR sizes the embedded Memory Renaming structures (paper: 136/40).
	MR vp.MRConfig
	// Epoch is the criticality epoch in retired instructions after which
	// the CIT resets (paper: 400 000).
	Epoch uint64
	// HistBits is the branch-history length for context prediction
	// (paper: 32).
	HistBits uint
	// Policy selects the criticality heuristic.
	Policy CritPolicy
	// AllTypes allows predicting non-load instructions (§VI-A2 ablation;
	// the paper's default is loads only).
	AllTypes bool
	// BranchChains also targets dependence chains of mispredicting
	// branches (§VI-A3 ablation; default off).
	BranchChains bool
	// DisableMR turns off the memory-dependence component (Fig 13
	// register-only configuration).
	DisableMR bool
	// MROnly turns off the register component (Fig 13 memory-only):
	// only Memory-Renaming predictions are made.
	MROnly bool
	// Seed drives the probabilistic confidence counters.
	Seed uint64
}

// DefaultConfig returns the paper's FVP configuration (Table I).
func DefaultConfig() Config {
	return Config{
		CITEntries: 32,
		VTEntries:  48,
		VTWays:     2,
		LTEntries:  2,
		MR:         vp.PaperMRConfig(),
		Epoch:      400_000,
		HistBits:   32,
		Policy:     CritRetireStall,
		Seed:       1,
	}
}

// ratPCEntries is the RAT-PC extension size the paper budgets (16 entries
// of 11-bit last-writer PCs, Table I). The timing model keeps last-writer
// PCs for every architectural register; the budget below is what the
// hardware proposal pays.
const ratPCEntries = 16

// FVP is the Focused Value Predictor. It implements vp.Predictor.
type FVP struct {
	cfg Config
	cit *CIT
	vt  *VT
	mr  *vp.MR
	lt  []ltEntry
	// DebugRootHook, when non-nil, observes every confirmed critical-root
	// PC (test instrumentation).
	DebugRootHook func(pc uint64)
	// DebugLTHitHook, when non-nil, observes Learning-Table hit PCs.
	DebugLTHitHook func(pc uint64)
	// mrCand is a small tagged PC set of loads handed to Memory Renaming
	// (focused loads whose Last-Value prediction failed, §IV-D). It
	// outlives Value-Table evictions so MR training isn't starved by VT
	// churn; conflicting PCs simply overwrite each other.
	mrCand [64]uint16

	retired     uint64
	lastEpochAt uint64
	mrMarks     uint64

	// Stats.
	RootsSeen     uint64 // critical-root executions observed
	ChainWalks    uint64 // parent sets pushed into the LT
	LTHits        uint64
	LVPredictions uint64
	CVPredictions uint64
	MRPredictions uint64
	EpochResets   uint64
}

type ltEntry struct {
	pc    uint64
	valid bool
	age   uint64
}

var _ vp.Predictor = (*FVP)(nil)

// New builds an FVP instance from cfg.
func New(cfg Config) *FVP {
	if cfg.CITEntries == 0 {
		cfg = DefaultConfig()
	}
	f := &FVP{
		cfg: cfg,
		cit: NewCIT(cfg.CITEntries),
		vt:  NewVT(cfg.VTEntries, cfg.VTWays, cfg.HistBits, cfg.Seed),
		lt:  make([]ltEntry, cfg.LTEntries),
	}
	if !cfg.DisableMR {
		f.mr = vp.NewMR(cfg.MR)
		if !cfg.MROnly {
			// Full FVP renames only focused loads; the memory-only
			// ablation (Fig 13) renames like standalone MR.
			f.mr.Critical = f.mrEligible
		}
	}
	return f
}

// Name implements vp.Predictor.
func (f *FVP) Name() string {
	switch {
	case f.cfg.MROnly:
		return "FVP-mem-only"
	case f.cfg.DisableMR:
		return "FVP-reg-only"
	case f.cfg.Policy != CritRetireStall:
		return "FVP-" + f.cfg.Policy.String()
	}
	return "FVP"
}

// Config returns the predictor's configuration.
func (f *FVP) Config() Config { return f.cfg }

func pcTag(pc uint64) uint16 {
	t := uint16(pc>>2) ^ uint16(pc>>15)
	if t == 0 {
		t = 1
	}
	return t
}

func (f *FVP) markMRCandidate(pc uint64) {
	f.mrMarks++
	f.mrCand[(pc>>2)%uint64(len(f.mrCand))] = pcTag(pc)
}

func (f *FVP) isMRCandidate(pc uint64) bool {
	return f.mrCand[(pc>>2)%uint64(len(f.mrCand))] == pcTag(pc)
}

// mrEligible gates Memory Renaming to focused loads: a load is handed to MR
// when Last-Value prediction failed on it (§IV-D). A load whose LV entry is
// currently confidently predictable does not need MR.
func (f *FVP) mrEligible(loadPC uint64) bool {
	if e := f.vt.FindLV(loadPC); e.Predictable() {
		return false
	}
	return f.isMRCandidate(loadPC)
}

// Lookup implements vp.Predictor: MR first for loads (and the store-side
// Value-File deposit), then Last-Value, then Context-Value (§IV-E).
func (f *FVP) Lookup(d *isa.DynInst, ctx *vp.Ctx) vp.Prediction {
	if f.mr != nil {
		if p := f.mr.Lookup(d, ctx); p.Valid {
			f.MRPredictions++
			return p
		}
	}
	if f.cfg.MROnly {
		return vp.Prediction{}
	}
	if !d.Op.IsLoad() && !f.cfg.AllTypes || !d.HasDest() {
		return vp.Prediction{}
	}
	if e := f.vt.FindLV(d.PC); e.Predictable() {
		f.LVPredictions++
		return vp.Prediction{Valid: true, Value: e.data}
	}
	if e := f.vt.FindCV(d.PC, ctx.Hist); e.Predictable() {
		f.CVPredictions++
		return vp.Prediction{Valid: true, Value: e.data}
	}
	return vp.Prediction{}
}

// pushParents queues the instruction's parent-producer PCs into the
// Learning Table (the backward chain walk, §IV-B). The LT is tiny (2
// entries); older entries are overwritten, which matches the paper's
// one-at-a-time learning.
func (f *FVP) pushParents(ctx *vp.Ctx) {
	if ctx.NumParents == 0 {
		return
	}
	f.ChainWalks++
	for i := 0; i < ctx.NumParents; i++ {
		pc := ctx.Parents[i]
		if pc == 0 {
			continue
		}
		f.insertLT(pc)
	}
}

func (f *FVP) insertLT(pc uint64) {
	oldest := 0
	for i := range f.lt {
		if f.lt[i].valid && f.lt[i].pc == pc {
			return
		}
		if !f.lt[i].valid {
			oldest = i
			break
		}
		if f.lt[i].age < f.lt[oldest].age {
			oldest = i
		}
	}
	f.lt[oldest] = ltEntry{pc: pc, valid: true, age: f.vtTick()}
}

func (f *FVP) vtTick() uint64 {
	f.vt.tick++
	return f.vt.tick
}

func (f *FVP) takeLT(pc uint64) bool {
	for i := range f.lt {
		if f.lt[i].valid && f.lt[i].pc == pc {
			f.lt[i] = ltEntry{}
			f.LTHits++
			if f.DebugLTHitHook != nil {
				f.DebugLTHitHook(pc)
			}
			return true
		}
	}
	return false
}

// isCriticalRoot applies the configured criticality policy to an executed
// instruction.
func (f *FVP) isCriticalRoot(d *isa.DynInst, info vp.TrainInfo) bool {
	if !d.Op.IsLoad() && !f.cfg.AllTypes {
		// CIT learns only loads that stall retirement (§IV-B).
		return false
	}
	switch f.cfg.Policy {
	case CritRetireStall:
		if !info.NearHead {
			return false
		}
	case CritL1Miss, CritL1MissOnly:
		if !info.L1Miss {
			return false
		}
	case CritOracle:
		if !info.OracleCritical {
			return false
		}
	}
	if !f.cfg.BranchChains && info.MispredictedBranchChain {
		// §IV-A2: chains feeding mispredicting branches are ignored —
		// value prediction shares the branch predictor's history and
		// cannot do better on them.
		return false
	}
	return f.cit.Observe(d.PC)
}

// Train implements vp.Predictor; it runs at execution writeback and drives
// the whole focused-training state machine.
func (f *FVP) Train(d *isa.DynInst, ctx *vp.Ctx, info vp.TrainInfo) {
	if f.mr != nil {
		f.mr.Train(d, ctx, info)
	}
	if f.cfg.MROnly {
		return
	}

	// Every step below probes the same Last-Value row for d.PC, so look
	// it up once. Safe to hoist: find is a pure probe, entries live in a
	// flat slab that never reallocates (pointers stay valid), and the
	// only writes to the row between the old probe sites are the
	// allocations below, which update lv in place. The Context-Value row
	// cannot be pre-probed the same way — an LV allocation may evict it —
	// so it is looked up once at its first use instead.
	lv := f.vt.FindLV(d.PC)

	// 1. Criticality detection → root handling.
	if f.isCriticalRoot(d, info) {
		f.RootsSeen++
		if f.DebugRootHook != nil {
			f.DebugRootHook(d.PC)
		}
		// Predicting the root itself can help its forward dependents
		// (§IV-B), so the root allocates too...
		if lv == nil {
			lv = f.vt.AllocateLV(d.PC, d.Value, d.Op.IsLoad() || f.cfg.AllTypes && d.HasDest())
		}
		// ...and its parents enter the Learning Table — unless the
		// policy is L1-Miss-Only, which stops at the root.
		if f.cfg.Policy != CritL1MissOnly {
			f.pushParents(ctx)
		}
	}

	// 2. Learning Table hit → Value Table allocation. Non-loads are
	// never predictable, so every hit keeps the walk moving toward their
	// producers (§IV-B: "this process repeats until a load is found");
	// an already-branded-unpredictable load does the same unless its
	// memory dependence makes it an MR target.
	if f.takeLT(d.PC) {
		isPredictableType := d.Op.IsLoad() || f.cfg.AllTypes && d.HasDest()
		if lv == nil {
			lv = f.vt.AllocateLV(d.PC, d.Value, isPredictableType)
		}
		if f.cfg.Policy != CritL1MissOnly {
			switch {
			case !isPredictableType:
				f.pushParents(ctx)
			case lv.NotPredictable() && !info.Forwarded:
				f.pushParents(ctx)
			}
		}
	}

	// 3. Value Table training.
	var cv *vtEntry
	cvProbed := false
	if e := lv; e != nil {
		if becameNP := f.vt.train(e, d.Value); becameNP && e.isLoad {
			// LV failed: hand the load to context prediction, and
			// check the memory dependence (§IV-C, §IV-D). A load the
			// LSQ forwards to goes to Memory Renaming; one with no
			// memory dependence continues the backward walk to its
			// parent sources right away.
			e.cvMarked = true
			if info.Forwarded {
				e.mrMarked = true
				f.markMRCandidate(d.PC)
			} else if f.cfg.Policy != CritL1MissOnly {
				f.pushParents(ctx)
			}
		}
		if e.cvMarked && info.NearHead {
			// Re-record near-stall instances under (PC, history)
			// (§IV-C reduces tracked histories this way).
			if cv = f.vt.FindCV(d.PC, ctx.Hist); cv == nil {
				cv = f.vt.AllocateCV(d.PC, ctx.Hist, d.Value, e.isLoad)
			}
			cvProbed = true
		}
	}
	if !cvProbed {
		cv = f.vt.FindCV(d.PC, ctx.Hist)
	}
	if e := cv; e != nil && e.isContext {
		if becameNP := f.vt.train(e, d.Value); becameNP && e.isLoad {
			// Context failed too; if MR has no association either,
			// continue the backward walk to the parents (§IV-D).
			if f.cfg.Policy != CritL1MissOnly {
				f.pushParents(ctx)
			}
		}
	}
}

// OnForward implements vp.Predictor: store→load forwarding trains the
// embedded MR, but only for loads FVP is focusing on.
func (f *FVP) OnForward(loadPC, storePC uint64) {
	if f.mr == nil {
		return
	}
	if !f.cfg.MROnly && !f.isMRCandidate(loadPC) {
		// Not a focused load (or still LV-predictable): the tiny SL
		// cache is reserved for loads that need it.
		return
	}
	f.mr.OnForward(loadPC, storePC)
}

// OnRetire implements vp.Predictor: counts retirements and resets the CIT
// at criticality-epoch boundaries (§IV-A1).
func (f *FVP) OnRetire(*isa.DynInst) {
	f.retired++
	if f.cfg.Epoch > 0 && f.retired-f.lastEpochAt >= f.cfg.Epoch {
		f.lastEpochAt = f.retired
		f.cit.Reset()
		f.EpochResets++
	}
}

// OnFlush implements vp.Predictor (FVP's tables hold no speculative
// cursors; Value-File entries are validated by sequence number).
func (f *FVP) OnFlush() {}

// StorageBits implements vp.Predictor: CIT + VT + MR + RAT-PC (Table I).
func (f *FVP) StorageBits() int {
	bits := f.cit.StorageBits() + f.vt.StorageBits() + ratPCEntries*11
	if f.mr != nil {
		bits += f.mr.StorageBits()
	}
	return bits
}

// StorageBreakdown reports the per-structure budget in bits, reproducing
// Table I.
func (f *FVP) StorageBreakdown() []StorageItem {
	items := []StorageItem{
		{"Critical Instruction Table", f.cit.StorageBits(), len(f.cit.entries)},
		{"Value Table", f.vt.StorageBits(), f.vt.Entries()},
	}
	if f.mr != nil {
		sl := f.cfg.MR.SLEntries
		for sl&(sl-1) != 0 {
			sl &= sl - 1
		}
		items = append(items,
			StorageItem{"MR Store/Load Table", sl * (11 + 3 + 2), sl},
			StorageItem{"MR Value File", f.cfg.MR.VFEntries * (64 + 6), f.cfg.MR.VFEntries},
		)
	}
	items = append(items, StorageItem{"RAT-PC", ratPCEntries * 11, ratPCEntries})
	return items
}

// StorageItem is one row of the Table-I breakdown.
type StorageItem struct {
	Name    string
	Bits    int
	Entries int
}
