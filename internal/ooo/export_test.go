package ooo

import "fvp/internal/isa"

// NewSliceSource exposes sliceSource to the external test package.
func NewSliceSource(insts []isa.DynInst) InstSource { return &sliceSource{insts: insts} }
