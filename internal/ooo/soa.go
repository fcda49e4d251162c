package ooo

import (
	"fvp/internal/isa"
	"fvp/internal/memsys"
)

// Struct-of-arrays window storage.
//
// The window used to be a single []rent array-of-structs: one 264-byte
// record per ROB slot holding the micro-op, both source dependences, the
// FVP bookkeeping and the scheduler state side by side. Every per-cycle
// predicate (is this ref stale? is the head done? is this producer's
// result available?) dragged a whole record — four-plus cache lines —
// through L1 to read eight bytes of it, and renaming wrote the full record
// with a duffcopy. At Skylake sizing (224 entries) the ROB alone was 59 KB,
// twice the L1D; the Skylake-2X golden configs double that.
//
// The slabs below split that record by access pattern:
//
//   - seq / state / flags / doneAt: the fields every scheduler predicate
//     reads. One byte or word per slot, densely packed, so a staleness
//     check or a completion test touches exactly one line and neighboring
//     slots share it. flags bit-packs the six booleans the old record
//     spread over six padded bytes; availability checks mask-and-test
//     instead of loading separate bools.
//   - inst: the 48-byte isa.DynInst payload, still dense but only touched
//     by stages that need the architectural fields (op/regs/addr/value).
//   - src: two srcDep records per slot (flat, 2*i addressing) — the rename
//     dependence edges, read by wakeup/ready checks.
//   - pred: the value-prediction availability triple destAvail reads on
//     the issue path (predicted-value arrival time, MR store link).
//   - cold: everything the steady-state cycle loop does not touch per
//     predicate — parent PCs and history snapshot (read once at complete
//     for training), store-wait and store-sets links, criticality records,
//     the predicted value (read once at validation). Splitting these out
//     is also what keeps the Observer/PipeTracer hooks zero-cost: tracers
//     receive *isa.DynInst pointers into the inst slab, so the hot slabs
//     carry no observability state at all.
//
// Cross-slab references are int32 slot indices plus the slot's seq (see
// schedRef in sched.go): an index is 4 bytes against a pointer's 8, never
// keeps a record alive for GC, and survives the harness's core pooling
// (Reset re-zeroes slabs in place; no pointer identity to fix up).
//
// The slab refactor is pure layout: every predicate and visit order is a
// 1:1 translation of the array-of-structs code, and the golden-stat matrix
// (generator-driven and replayed from memory, elision on/off, -race) pins
// the simulated machine byte-identical across the change.

// flags bits (one byte per slot in window.flags).
const (
	// fInIQ: the entry occupies an issue-queue slot.
	fInIQ uint8 = 1 << iota
	// fInReadyQ: the entry is in the scheduler's ready queue.
	fInReadyQ
	// fPredicted: a value prediction was accepted at rename.
	fPredicted
	// fValidated: the prediction was checked at completion.
	fValidated
	// fIssuedToMem: a load actually accessed the hierarchy (vs forwarding).
	fIssuedToMem
	// fBrMispredict: the entry is a mispredicted branch.
	fBrMispredict
)

// srcDep is one rename dependence edge: either the producing in-window
// slot (prodIdx/prodSeq) or an immediate availability time.
type srcDep struct {
	prodSeq uint64
	availAt uint64
	prodIdx int32
	hasProd bool
}

// predLink is the value-prediction availability state destAvail reads on
// the wakeup path: when the predicted value arrives, and — for MR
// store-linked predictions — which in-window store delivers it.
type predLink struct {
	availAt uint64 // cycle the predicted value is usable (non-linked)
	linkSeq uint64 // seq of the MR-linked store (guards link staleness)
	link    int32  // slot of the MR-linked store, -1 = none
}

// slotCold holds the per-slot fields no steady-state predicate reads:
// training context captured at rename, memory-dependence wait links,
// criticality records, and the predicted value (read once at validation).
type slotCold struct {
	parents     [2]uint64 // producer PCs for the FVP context
	histSnap    uint64    // branch history at fetch
	issueAt     uint64
	addrKnownAt uint64 // stores: address resolved
	fwdFromSeq  uint64 // loads: seq of forwarding store (0 = none)
	waitSeq     uint64 // seq of the store a deferred load waits on
	ssWaitSeq   uint64 // store-sets: seq of the store to wait for
	predValue   uint64
	critSeq     uint64 // seq of the last-arriving producer
	waitIdx     int32  // slot of the store a deferred load waits on
	ssWaitIdx   int32  // store-sets wait slot, -1 = none
	crit        int32  // last-arriving producer slot, -1 = none
	nparents    uint8
	lvl         memsys.Level
}

// window is the struct-of-arrays ROB. All slabs are preallocated at
// ROBSize and indexed by slot; ROB/LQ/SQ/IQ membership is tracked by the
// head/count cursors and occupancy counters on Core (which double as the
// Observer's occupancy sample — no per-interval window walk).
type window struct {
	inst   []isa.DynInst
	seq    []uint64 // mirror of inst[i].Seq; ^0 marks a squashed slot
	state  []uint8
	flags  []uint8
	doneAt []uint64
	src    []srcDep // 2 per slot: src[2*i], src[2*i+1]
	pred   []predLink
	cold   []slotCold
}

func (w *window) init(n int) {
	w.inst = make([]isa.DynInst, n)
	w.seq = make([]uint64, n)
	w.state = make([]uint8, n)
	w.flags = make([]uint8, n)
	w.doneAt = make([]uint64, n)
	w.src = make([]srcDep, 2*n)
	w.pred = make([]predLink, n)
	w.cold = make([]slotCold, n)
}

// reset zeroes every slab in place (the Reset-equals-New contract).
func (w *window) reset() {
	clear(w.inst)
	clear(w.seq)
	clear(w.state)
	clear(w.flags)
	clear(w.doneAt)
	clear(w.src)
	clear(w.pred)
	clear(w.cold)
}

// reinit claims slot i for a newly renamed micro-op, resetting every slab
// field to its rename default in one pass (the SoA equivalent of the old
// whole-record overwrite, minus the duffcopy).
func (w *window) reinit(i int, d *isa.DynInst, histSnap uint64) {
	w.inst[i] = *d
	w.seq[i] = d.Seq
	w.state[i] = sWaiting
	w.flags[i] = fInIQ
	w.doneAt[i] = 0
	w.src[2*i] = srcDep{}
	w.src[2*i+1] = srcDep{}
	w.pred[i] = predLink{link: -1}
	w.cold[i] = slotCold{histSnap: histSnap, waitIdx: -1, ssWaitIdx: -1, crit: -1}
}
