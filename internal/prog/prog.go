// Package prog defines a small static program representation for the mini
// ISA in internal/isa, plus a functional executor that turns a program into
// a stream of dynamic micro-ops (isa.DynInst). Workload kernels
// (internal/workload) are expressed as these programs, so the values,
// addresses and branch outcomes the timing model sees are produced by real
// execution of real (if small) programs rather than sampled from
// distributions. That is what makes value locality, striding, store→load
// forwarding and branch (un)predictability emerge naturally.
package prog

import (
	"fmt"

	"fvp/internal/isa"
)

// Fn is the detailed operation an instruction performs. The coarse timing
// class (isa.Op) is derived from it.
type Fn uint8

const (
	// FnNop does nothing.
	FnNop Fn = iota
	// FnMovI writes the immediate: dst = imm.
	FnMovI
	// FnAdd computes dst = src1 + src2 + imm.
	FnAdd
	// FnSub computes dst = src1 - src2 + imm.
	FnSub
	// FnAnd computes dst = src1 & (src2 | uint64(imm)).
	FnAnd
	// FnOr computes dst = src1 | src2 | uint64(imm).
	FnOr
	// FnXor computes dst = src1 ^ src2 ^ uint64(imm).
	FnXor
	// FnShl computes dst = src1 << (imm & 63).
	FnShl
	// FnShr computes dst = src1 >> (imm & 63).
	FnShr
	// FnMul computes dst = src1 * src2 (3-cycle multiply class).
	FnMul
	// FnMulI computes dst = src1 * imm (3-cycle multiply class).
	FnMulI
	// FnDiv computes dst = src1 / src2 (src2==0 yields all-ones). Long
	// latency divide class.
	FnDiv
	// FnFPAdd is a floating-point-class add (computed on the integer bits;
	// only the latency class differs from FnAdd).
	FnFPAdd
	// FnFPMul is a floating-point-class multiply.
	FnFPMul
	// FnFPDiv is a floating-point-class divide.
	FnFPDiv
	// FnLoad reads dst = mem[src1 + imm].
	FnLoad
	// FnStore writes mem[src1 + imm] = src2.
	FnStore
	// FnBEZ branches to Target when src1 == 0.
	FnBEZ
	// FnBNZ branches to Target when src1 != 0.
	FnBNZ
	// FnBLT branches to Target when int64(src1) < int64(src2).
	FnBLT
	// FnBGE branches to Target when int64(src1) >= int64(src2).
	FnBGE
	// FnJump jumps unconditionally to Target.
	FnJump
	// FnCall jumps to Target and records the fall-through PC on the
	// executor's call stack; dst (if any) receives the return address.
	FnCall
	// FnRet pops the call stack and jumps to the recorded address.
	FnRet
	// FnJumpReg jumps to the instruction index held in src1 (indirect).
	FnJumpReg
	// FnHalt ends execution (the executor then restarts from entry, so
	// traces of any length can be drawn from finite programs).
	FnHalt
	fnCount
)

var fnNames = [...]string{
	FnNop: "nop", FnMovI: "movi", FnAdd: "add", FnSub: "sub", FnAnd: "and",
	FnOr: "or", FnXor: "xor", FnShl: "shl", FnShr: "shr", FnMul: "mul",
	FnMulI: "muli", FnDiv: "div", FnFPAdd: "fadd", FnFPMul: "fmul",
	FnFPDiv: "fdiv", FnLoad: "load", FnStore: "store", FnBEZ: "bez",
	FnBNZ: "bnz", FnBLT: "blt", FnBGE: "bge", FnJump: "jmp", FnCall: "call",
	FnRet: "ret", FnJumpReg: "jmpr", FnHalt: "halt",
}

// String returns the mnemonic for the function.
func (f Fn) String() string {
	if int(f) < len(fnNames) && fnNames[f] != "" {
		return fnNames[f]
	}
	return fmt.Sprintf("fn(%d)", uint8(f))
}

// Op returns the coarse micro-op class used by the timing model.
func (f Fn) Op() isa.Op {
	switch f {
	case FnNop, FnHalt:
		return isa.OpNop
	case FnMovI, FnAdd, FnSub, FnAnd, FnOr, FnXor, FnShl, FnShr:
		return isa.OpALU
	case FnMul, FnMulI:
		return isa.OpIMul
	case FnDiv:
		return isa.OpIDiv
	case FnFPAdd, FnFPMul:
		return isa.OpFP
	case FnFPDiv:
		return isa.OpFPDiv
	case FnLoad:
		return isa.OpLoad
	case FnStore:
		return isa.OpStore
	case FnBEZ, FnBNZ, FnBLT, FnBGE:
		return isa.OpBranch
	case FnJump:
		return isa.OpJump
	case FnCall:
		return isa.OpCall
	case FnRet:
		return isa.OpRet
	case FnJumpReg:
		return isa.OpIndirect
	}
	return isa.OpNop
}

// Inst is one static instruction of a program.
type Inst struct {
	// Fn selects the operation.
	Fn Fn
	// Dst, Src1, Src2 are register operands (isa.RegZero when unused).
	Dst, Src1, Src2 isa.Reg
	// Imm is the immediate operand (displacement for memory ops).
	Imm int64
	// Target is the static instruction index branches/jumps/calls go to.
	Target int
}

// String formats the instruction for listings.
func (in Inst) String() string {
	switch in.Fn {
	case FnLoad:
		return fmt.Sprintf("%-5s %s, [%s%+d]", in.Fn, in.Dst, in.Src1, in.Imm)
	case FnStore:
		return fmt.Sprintf("%-5s [%s%+d], %s", in.Fn, in.Src1, in.Imm, in.Src2)
	case FnBEZ, FnBNZ, FnBLT, FnBGE, FnJump, FnCall:
		return fmt.Sprintf("%-5s %s, %s, @%d", in.Fn, in.Src1, in.Src2, in.Target)
	case FnMovI:
		return fmt.Sprintf("%-5s %s, %d", in.Fn, in.Dst, in.Imm)
	default:
		return fmt.Sprintf("%-5s %s, %s, %s, %d", in.Fn, in.Dst, in.Src1, in.Src2, in.Imm)
	}
}

// Program is a finite static program plus its initial data image.
type Program struct {
	// Name identifies the program (workload name).
	Name string
	// Code is the instruction sequence; entry is index 0.
	Code []Inst
	// CodeBase is the byte address of Code[0]; instruction i lives at
	// CodeBase + i*isa.InstBytes.
	CodeBase uint64
	// InitMem seeds the data image (word-aligned byte address → value).
	// Each word it names materializes a 4 KiB page, so it holds scalars;
	// large structures come from Background.
	InitMem map[uint64]uint64
	// Background, when non-nil, supplies deterministic values for words
	// never written, so large structures exist without storage: hashed
	// cold tables and tables that hold one value throughout alike.
	Background func(addr uint64) uint64
	// WarmRanges hints which address ranges should start resident in the
	// cache hierarchy (steady-state image instead of an unrealistically
	// cold one). Level: 0=L1, 1=L2, 2=LLC.
	WarmRanges []WarmRange
	// InitRegs seeds architectural registers before the first instruction.
	InitRegs map[isa.Reg]uint64
}

// WarmRange asks the timing model to pre-install [Base, Base+Bytes) into
// the cache level (and the levels behind it) before simulation starts.
type WarmRange struct {
	Base  uint64
	Bytes uint64
	Level int
}

// BuildMemory materializes the program's initial data image.
func (p *Program) BuildMemory() *Memory {
	m := NewMemory()
	m.SetBackground(p.Background)
	for a, v := range p.InitMem {
		m.Write(a&^7, v)
	}
	return m
}

// PCOf returns the byte address of static instruction idx.
func (p *Program) PCOf(idx int) uint64 {
	return p.CodeBase + uint64(idx)*isa.InstBytes
}

// IndexOf returns the static instruction index at byte address pc and
// whether pc falls inside the program.
func (p *Program) IndexOf(pc uint64) (int, bool) {
	if pc < p.CodeBase {
		return 0, false
	}
	idx := (pc - p.CodeBase) / isa.InstBytes
	if idx >= uint64(len(p.Code)) {
		return 0, false
	}
	return int(idx), true
}

// Validate checks structural well-formedness: targets in range, register
// operands valid, halt reachable only via FnHalt. It returns the first
// problem found.
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("prog %q: empty code", p.Name)
	}
	for i, in := range p.Code {
		if in.Fn >= fnCount {
			return fmt.Errorf("prog %q @%d: bad fn %d", p.Name, i, in.Fn)
		}
		if !in.Dst.Valid() || !in.Src1.Valid() || !in.Src2.Valid() {
			return fmt.Errorf("prog %q @%d: bad register operand", p.Name, i)
		}
		switch in.Fn {
		case FnBEZ, FnBNZ, FnBLT, FnBGE, FnJump, FnCall:
			if in.Target < 0 || in.Target >= len(p.Code) {
				return fmt.Errorf("prog %q @%d: target %d out of range [0,%d)",
					p.Name, i, in.Target, len(p.Code))
			}
		}
	}
	return nil
}
