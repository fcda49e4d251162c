package vp

import "fvp/internal/isa"

// VTAGE (Perais & Seznec, HPCA'14) is the tagged geometric-history value
// predictor the paper cites as prior art: a PC-indexed base (last-value)
// table backed by tagged tables keyed on progressively longer branch
// history. This standalone build composes the LVP base with the CVP tagged
// tables; the Composite predictor uses the same parts with the DLVP address
// predictors added.
type VTAGE struct {
	base *LVP
	tage *CVP
}

// NewVTAGE builds a predictor with the given base entries and per-table
// tagged entries (4 history lengths).
func NewVTAGE(baseEntries, taggedPerTable int, seed uint64) *VTAGE {
	return &VTAGE{
		base: NewLVP(baseEntries, 2, seed),
		tage: NewCVP(taggedPerTable, nil, seed+1),
	}
}

// Name implements Predictor.
func (v *VTAGE) Name() string { return "VTAGE" }

// Lookup implements Predictor: longest-history hit wins, base as fallback.
func (v *VTAGE) Lookup(d *isa.DynInst, ctx *Ctx) Prediction {
	if p := v.tage.Lookup(d, ctx); p.Valid {
		return p
	}
	return v.base.Lookup(d, ctx)
}

// Train implements Predictor.
func (v *VTAGE) Train(d *isa.DynInst, ctx *Ctx, info TrainInfo) {
	v.base.Train(d, ctx, info)
	v.tage.Train(d, ctx, info)
}

// OnForward implements Predictor.
func (v *VTAGE) OnForward(uint64, uint64) {}

// OnRetire implements Predictor.
func (v *VTAGE) OnRetire(*isa.DynInst) {}

// OnFlush implements Predictor.
func (v *VTAGE) OnFlush() {
	v.base.OnFlush()
	v.tage.OnFlush()
}

// StorageBits implements Predictor.
func (v *VTAGE) StorageBits() int { return v.base.StorageBits() + v.tage.StorageBits() }

// EVES (Seznec, CVP-1 2018) augments VTAGE with an enhanced stride
// component (E-Stride) that captures monotonically striding results —
// the configuration the paper derives the Composite's value side from.
type EVES struct {
	vtage  *VTAGE
	stride *Stride
}

// NewEVES builds an EVES-style predictor (≈8 KB at the sizing the
// harness's EVES family uses: 256 base entries, 80 per tagged table,
// 6 stride bits).
func NewEVES(baseEntries, taggedPerTable int, strideBits uint, seed uint64) *EVES {
	return &EVES{
		vtage:  NewVTAGE(baseEntries, taggedPerTable, seed),
		stride: NewStride(strideBits),
	}
}

// Name implements Predictor.
func (e *EVES) Name() string { return "EVES" }

// Lookup implements Predictor: E-Stride first (it captures values VTAGE
// cannot — results that never repeat), then the VTAGE side.
func (e *EVES) Lookup(d *isa.DynInst, ctx *Ctx) Prediction {
	if p := e.stride.Lookup(d, ctx); p.Valid {
		return p
	}
	return e.vtage.Lookup(d, ctx)
}

// Train implements Predictor.
func (e *EVES) Train(d *isa.DynInst, ctx *Ctx, info TrainInfo) {
	e.vtage.Train(d, ctx, info)
	e.stride.Train(d, ctx, info)
}

// OnForward implements Predictor.
func (e *EVES) OnForward(uint64, uint64) {}

// OnRetire implements Predictor.
func (e *EVES) OnRetire(*isa.DynInst) {}

// OnFlush implements Predictor.
func (e *EVES) OnFlush() {
	e.vtage.OnFlush()
	e.stride.OnFlush()
}

// StorageBits implements Predictor.
func (e *EVES) StorageBits() int { return e.vtage.StorageBits() + e.stride.StorageBits() }
