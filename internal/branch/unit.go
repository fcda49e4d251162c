package branch

import "fvp/internal/isa"

// Unit bundles the direction predictor, indirect-target predictor and the
// return-address stack into the front-end branch unit the core consults once
// per fetched control-flow instruction.
//
// The trace-driven core knows the architecturally-correct path, so Unit's
// job is to decide *whether the front end would have followed it*:
// PredictAndTrain reports whether its prediction matches the trace, and the
// core charges a misprediction bubble when it does not.
type Unit struct {
	Dir      *TAGE
	Indirect *ITTAGE
	Ras      *RAS
	Hist     GlobalHistory
}

// NewUnit builds a branch unit with the given table configurations.
func NewUnit(dir, indirect TAGEConfig, rasEntries int) *Unit {
	return &Unit{
		Dir:      NewTAGE(dir),
		Indirect: NewITTAGE(indirect),
		Ras:      NewRAS(rasEntries),
	}
}

// NewDefaultUnit builds a unit with the default Skylake-like configuration.
func NewDefaultUnit() *Unit {
	return NewUnit(DefaultTAGEConfig(), DefaultITTAGEConfig(), 32)
}

// Reset restores every predictor to its just-constructed state so the unit
// can be reused across simulation runs without reallocating its tables.
func (u *Unit) Reset() {
	u.Dir.Reset()
	u.Indirect.Reset()
	u.Ras.Reset()
	u.Hist = GlobalHistory{}
}

// PredictAndTrain performs the front-end prediction for the resolved branch
// d, immediately trains the predictors with the architectural outcome, and
// updates global history. It reports whether both the predicted direction
// and target match the trace. This retire-time-equivalent in-order
// train/update sequence is the standard idealization in trace-driven
// models: predictor state never sees wrong-path pollution, which slightly
// flatters all configurations equally.
func (u *Unit) PredictAndTrain(d *isa.DynInst) (correct bool) {
	switch d.Op {
	case isa.OpBranch:
		// Direct branch: target comes from the decoder, so a correct
		// direction implies a correct next PC.
		pred, st := u.Dir.Predict(d.PC, &u.Hist)
		u.Dir.Update(d.PC, st, d.Taken)
		u.Hist.Push(d.PC, d.Taken)
		return pred == d.Taken
	case isa.OpCall:
		u.Ras.Push(d.PC + isa.InstBytes)
		return true
	case isa.OpRet:
		tgt, ok := u.Ras.Pop()
		return ok && tgt == d.Target
	case isa.OpIndirect:
		tgt, ok, st := u.Indirect.Predict(d.PC, &u.Hist)
		u.Indirect.Update(d.PC, st, d.Target)
		return ok && tgt == d.Target
	}
	return true // direct jumps and non-branches
}
