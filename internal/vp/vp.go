// Package vp defines the value-prediction framework the core drives —
// the Predictor interface and the shared measurement plumbing — plus the
// prior-art predictors FVP is compared against in the paper's evaluation:
// Last-Value (LVP), stride, a VTAGE-like context predictor (CVP), the
// DLVP-style stride/context address predictors (SAP/CAP), their Composite
// combination (Sheikh & Hower, HPCA'19) and standalone Memory Renaming
// (Tyson & Austin). The paper's own predictor lives in internal/core.
package vp

import "fvp/internal/isa"

// Prediction is the outcome of a front-end lookup for one instruction.
type Prediction struct {
	// Valid is true when the predictor supplies a prediction.
	Valid bool
	// Value is the predicted result, used both to wake consumers and to
	// validate at execute. For store-linked predictions the core
	// overwrites it with the forwarding store's data.
	Value uint64
	// StoreLinked marks a Memory-Renaming prediction: the value comes
	// from the store identified by StoreSeq rather than from a table.
	// When DataReady is false the store has not executed yet, and the
	// load's consumers wake only when it does.
	StoreLinked bool
	// StoreSeq is the dynamic sequence number of the associated store.
	StoreSeq uint64
	// DataReady is true when Value already holds the store's data.
	DataReady bool
}

// Ctx carries the core-side state a predictor may consult. One Ctx is
// reused per core; fields are refreshed before each call.
type Ctx struct {
	// Hist is the outcome of the last 32 conditional branches (bit 0 =
	// most recent), the context FVP and the CVP key on.
	Hist uint64
	// Parents holds the PCs of the instructions that produced this
	// instruction's register sources, recovered from the RAT-PC
	// extension at rename (0 = none / zero register).
	Parents [2]uint64
	// NumParents is how many Parents entries are valid.
	NumParents int
	// MemPeek reads the retired architectural memory image (what DLVP's
	// early cache probe would return). Nil when unavailable.
	MemPeek func(addr uint64) uint64
	// CacheLevel reports where addr currently resides: 0=L1, 1=L2,
	// 2=LLC, 3=memory. Address predictors only deliver a value when the
	// line is cached (the DLVP probe reads the data cache, not DRAM).
	CacheLevel func(addr uint64) int
}

// TrainInfo carries the execution-time facts training hooks use.
type TrainInfo struct {
	// NearHead is true when the instruction executed while within the
	// commit width of the ROB head — the retirement-stall criticality
	// signal (paper §IV-A1).
	NearHead bool
	// L1Miss / LLCMiss describe a load's service level.
	L1Miss  bool
	LLCMiss bool
	// Forwarded is true when this load instance received its data from
	// an older in-flight store via the LSQ (it has a live memory
	// dependence, §III-A/§IV-D).
	Forwarded bool
	// OracleCritical is set by the graph-buffering oracle policy when the
	// instruction's execution lies on the measured critical path.
	OracleCritical bool
	// MispredictedBranchChain is set when the instruction feeds a
	// mispredicting branch (§VI-A3 experiment).
	MispredictedBranchChain bool
	// WasPredicted / Correct report what happened to this instruction's
	// own value prediction, for confidence management.
	WasPredicted bool
	Correct      bool
}

// Predictor is a value predictor as seen by the core.
//
// Call protocol, per dynamic instruction: Lookup at allocation (front-end),
// Train at execution writeback, OnRetire at commit. OnForward fires when the
// LSQ forwards store data to a load.
type Predictor interface {
	// Name identifies the configuration in reports ("FVP", "Comp-8KB"...).
	Name() string
	// Lookup returns a prediction for d at allocation time.
	Lookup(d *isa.DynInst, ctx *Ctx) Prediction
	// Train observes d's execution (actual value, addresses, criticality
	// signals).
	Train(d *isa.DynInst, ctx *Ctx, info TrainInfo)
	// OnForward observes a store→load forwarding event in the LSQ.
	OnForward(loadPC, storePC uint64)
	// OnRetire observes in-order commit (drives epoch counters).
	OnRetire(d *isa.DynInst)
	// OnFlush observes a pipeline squash: speculatively-advanced
	// predictor state (DLVP-style address cursors) must be repaired,
	// exactly as hardware restores checkpointed predictor state.
	OnFlush()
	// StorageBits returns the predictor's total state budget in bits,
	// for like-for-like area comparisons (paper Table I, Figs 10/11).
	StorageBits() int
}

// None is the no-prediction baseline. Its zero value is ready to use.
type None struct{}

// Name implements Predictor.
func (None) Name() string { return "baseline" }

// Lookup implements Predictor (never predicts).
func (None) Lookup(*isa.DynInst, *Ctx) Prediction { return Prediction{} }

// Train implements Predictor.
func (None) Train(*isa.DynInst, *Ctx, TrainInfo) {}

// OnForward implements Predictor.
func (None) OnForward(uint64, uint64) {}

// OnRetire implements Predictor.
func (None) OnRetire(*isa.DynInst) {}

// OnFlush implements Predictor.
func (None) OnFlush() {}

// StorageBits implements Predictor.
func (None) StorageBits() int { return 0 }

// Meter accumulates value-prediction outcome statistics; the core owns one
// and feeds it from validation.
type Meter struct {
	// Loads is the number of retired load instructions.
	Loads uint64
	// Insts is the number of retired instructions.
	Insts uint64
	// PredictedLoads counts retired loads that carried a prediction.
	PredictedLoads uint64
	// PredictedOther counts retired non-loads that carried a prediction.
	PredictedOther uint64
	// Correct and Wrong count validated predictions.
	Correct uint64
	Wrong   uint64
	// Flushes counts pipeline flushes caused by value mispredictions.
	Flushes uint64
}

// Coverage returns predicted loads per load, the paper's coverage metric.
func (m *Meter) Coverage() float64 {
	if m.Loads == 0 {
		return 0
	}
	return float64(m.PredictedLoads) / float64(m.Loads)
}

// Accuracy returns correct predictions per validated prediction.
func (m *Meter) Accuracy() float64 {
	total := m.Correct + m.Wrong
	if total == 0 {
		return 0
	}
	return float64(m.Correct) / float64(total)
}
