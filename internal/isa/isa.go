// Package isa defines the micro-op level instruction model shared by the
// functional executor (internal/prog) and the cycle-level out-of-order core
// (internal/ooo).
//
// The model is deliberately RISC-like: one destination register, up to two
// register sources, an optional memory access and an optional control-flow
// edge. It is rich enough to express the data-dependence, memory-dependence
// and control behaviour that value prediction (and Focused Value Prediction
// in particular) interacts with, without carrying x86 encoding baggage.
package isa

import "fmt"

// Reg identifies an architectural register. Register 0 (RegZero) is
// hard-wired to zero and is used to mean "no operand".
type Reg uint8

// RegZero is the always-zero register; as a source it reads 0, as a
// destination it discards the result. It doubles as "no register".
const RegZero Reg = 0

// NumArchRegs is the number of architectural integer/FP registers the mini
// ISA exposes. The rename machinery sizes its alias table from this.
const NumArchRegs = 32

// Valid reports whether r names an architectural register.
func (r Reg) Valid() bool { return r < NumArchRegs }

// String returns the assembler name of the register ("zero", "r1", ...).
func (r Reg) String() string {
	if r == RegZero {
		return "zero"
	}
	return fmt.Sprintf("r%d", uint8(r))
}

// Op enumerates micro-op kinds. The out-of-order core maps each kind to an
// execution port class and a latency; the value predictors care mostly about
// whether an op is a load, a store or a branch.
type Op uint8

const (
	// OpNop does nothing; it still occupies pipeline slots.
	OpNop Op = iota
	// OpALU is a single-cycle integer operation (add, sub, logic, shift,
	// compare, LEA-like address arithmetic).
	OpALU
	// OpIMul is integer multiply (3-cycle class).
	OpIMul
	// OpIDiv is integer divide (long-latency, unpipelined class).
	OpIDiv
	// OpFP is a pipelined floating-point/AVX arithmetic op (4-cycle class).
	OpFP
	// OpFPDiv is floating-point divide/sqrt (long-latency class).
	OpFPDiv
	// OpLoad reads memory. Addr/MemSize describe the access; Value holds
	// the loaded data.
	OpLoad
	// OpStore writes memory. Addr/MemSize describe the access; Value holds
	// the stored data (read from Src2 in the mini ISA).
	OpStore
	// OpBranch is a conditional direct branch. Taken/Target describe the
	// resolved outcome.
	OpBranch
	// OpJump is an unconditional direct jump (always taken).
	OpJump
	// OpCall is a direct call (always taken, pushes a return address).
	OpCall
	// OpRet is a function return (indirect, predicted via RAS).
	OpRet
	// OpIndirect is an indirect jump through a register (ITTAGE target).
	OpIndirect
	opCount
)

var opNames = [...]string{
	OpNop:      "nop",
	OpALU:      "alu",
	OpIMul:     "imul",
	OpIDiv:     "idiv",
	OpFP:       "fp",
	OpFPDiv:    "fpdiv",
	OpLoad:     "load",
	OpStore:    "store",
	OpBranch:   "br",
	OpJump:     "jmp",
	OpCall:     "call",
	OpRet:      "ret",
	OpIndirect: "ijmp",
}

// String returns the mnemonic for the op.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// NumOps is the number of defined micro-op kinds.
const NumOps = int(opCount)

// IsLoad reports whether the op reads memory.
func (o Op) IsLoad() bool { return o == OpLoad }

// IsStore reports whether the op writes memory.
func (o Op) IsStore() bool { return o == OpStore }

// IsMem reports whether the op accesses memory.
func (o Op) IsMem() bool { return o == OpLoad || o == OpStore }

// IsBranch reports whether the op is any control-flow instruction.
func (o Op) IsBranch() bool {
	switch o {
	case OpBranch, OpJump, OpCall, OpRet, OpIndirect:
		return true
	}
	return false
}

// IsCondBranch reports whether the op is a conditional branch (the only kind
// the TAGE direction predictor handles).
func (o Op) IsCondBranch() bool { return o == OpBranch }

// IsIndirect reports whether the op's target comes from a register and is
// predicted by ITTAGE or the return-address stack.
func (o Op) IsIndirect() bool { return o == OpRet || o == OpIndirect }

// HasDest reports whether the op produces a register result that consumers
// can depend on (and that value prediction could supply early).
func (o Op) HasDest() bool {
	switch o {
	case OpALU, OpIMul, OpIDiv, OpFP, OpFPDiv, OpLoad, OpCall:
		return true
	}
	return false
}

// DynInst is one dynamically executed micro-op: the unit that flows through
// the trace-driven pipeline. The functional executor fills in the
// architectural outcome (Value, Addr, Taken, Target) so that the timing model
// can validate speculation (value prediction, branch prediction, memory
// disambiguation) without re-executing semantics.
// The word-sized fields lead and the byte-sized fields are grouped so the
// struct packs into 48 bytes instead of 64: DynInst is copied on every
// fetch, rename and trace append, and the OOO window holds a slab of them,
// so the 25% size cut is measurable in the cycle loop (see
// internal/ooo/soa.go).
type DynInst struct {
	// Seq is the dynamic sequence number (program order), starting at 0.
	Seq uint64
	// PC is the instruction's address.
	PC uint64
	// Addr is the effective byte address for loads and stores.
	Addr uint64
	// Value is the architectural result: loaded data for loads, stored
	// data for stores, ALU/FP result otherwise.
	Value uint64
	// Target is the resolved next-PC for taken control flow.
	Target uint64
	// Op is the micro-op kind.
	Op Op
	// Dst is the destination register (RegZero if none).
	Dst Reg
	// Src1 and Src2 are the source registers (RegZero if unused). For
	// loads, Src1 is the address base. For stores, Src1 is the address
	// base and Src2 is the data source.
	Src1, Src2 Reg
	// MemSize is the access size in bytes (always 8 in the mini ISA).
	MemSize uint8
	// Taken is the resolved direction for conditional branches (always
	// true for jumps/calls/returns).
	Taken bool
}

// HasDest reports whether this dynamic instruction writes a register other
// than the zero register.
func (d *DynInst) HasDest() bool { return d.Op.HasDest() && d.Dst != RegZero }

// Sources returns the instruction's register sources, skipping RegZero.
// The result aliases an internal array; it is valid until the next call.
func (d *DynInst) Sources(buf *[2]Reg) []Reg {
	n := 0
	if d.Src1 != RegZero {
		buf[n] = d.Src1
		n++
	}
	if d.Src2 != RegZero {
		buf[n] = d.Src2
		n++
	}
	return buf[:n]
}

// String formats the dynamic instruction for debugging.
func (d *DynInst) String() string {
	switch {
	case d.Op.IsLoad():
		return fmt.Sprintf("#%d %#x %s %s=[%#x]=%#x", d.Seq, d.PC, d.Op, d.Dst, d.Addr, d.Value)
	case d.Op.IsStore():
		return fmt.Sprintf("#%d %#x %s [%#x]=%#x", d.Seq, d.PC, d.Op, d.Addr, d.Value)
	case d.Op.IsBranch():
		return fmt.Sprintf("#%d %#x %s taken=%t ->%#x", d.Seq, d.PC, d.Op, d.Taken, d.Target)
	default:
		return fmt.Sprintf("#%d %#x %s %s=%#x", d.Seq, d.PC, d.Op, d.Dst, d.Value)
	}
}

// InstBytes is the fixed encoding size of one mini-ISA instruction; dynamic
// PCs advance by this amount so that cache-line behaviour of the instruction
// stream is realistic.
const InstBytes = 4
