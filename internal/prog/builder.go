package prog

import (
	"fmt"

	"fvp/internal/isa"
)

// Builder assembles a Program with symbolic labels so kernels can be written
// without hand-counting instruction indices. The zero value is not usable;
// call NewBuilder.
type Builder struct {
	name     string
	codeBase uint64
	code     []Inst
	labels   map[string]int
	fixups   []fixup
	initMem  map[uint64]uint64
	initRegs map[isa.Reg]uint64
	errs     []error
}

type fixup struct {
	at    int
	label string
}

// NewBuilder creates a builder for a program called name. Code is based at
// a fixed text address so PCs are stable across runs.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:     name,
		codeBase: 0x0040_0000,
		labels:   make(map[string]int),
		initMem:  make(map[uint64]uint64),
		initRegs: make(map[isa.Reg]uint64),
	}
}

// SetCodeBase overrides the text base address (useful to lay kernels at
// distinct addresses when composing programs).
func (b *Builder) SetCodeBase(base uint64) *Builder {
	b.codeBase = base &^ 7
	return b
}

// Label binds name to the next instruction index.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("duplicate label %q", name))
	}
	b.labels[name] = len(b.code)
	return b
}

// InitReg sets the initial value of register r.
func (b *Builder) InitReg(r isa.Reg, v uint64) *Builder {
	b.initRegs[r] = v
	return b
}

// InitMem sets the initial 8-byte word at byte address addr.
func (b *Builder) InitMem(addr, v uint64) *Builder {
	b.initMem[addr&^7] = v
	return b
}

func (b *Builder) emit(in Inst) *Builder {
	b.code = append(b.code, in)
	return b
}

func (b *Builder) emitBranch(fn Fn, s1, s2 isa.Reg, label string) *Builder {
	b.fixups = append(b.fixups, fixup{at: len(b.code), label: label})
	return b.emit(Inst{Fn: fn, Src1: s1, Src2: s2})
}

// Nop emits a no-op.
func (b *Builder) Nop() *Builder { return b.emit(Inst{Fn: FnNop}) }

// MovI emits dst = imm.
func (b *Builder) MovI(dst isa.Reg, imm int64) *Builder {
	return b.emit(Inst{Fn: FnMovI, Dst: dst, Imm: imm})
}

// Add emits dst = s1 + s2.
func (b *Builder) Add(dst, s1, s2 isa.Reg) *Builder {
	return b.emit(Inst{Fn: FnAdd, Dst: dst, Src1: s1, Src2: s2})
}

// AddI emits dst = s1 + imm.
func (b *Builder) AddI(dst, s1 isa.Reg, imm int64) *Builder {
	return b.emit(Inst{Fn: FnAdd, Dst: dst, Src1: s1, Imm: imm})
}

// Sub emits dst = s1 - s2.
func (b *Builder) Sub(dst, s1, s2 isa.Reg) *Builder {
	return b.emit(Inst{Fn: FnSub, Dst: dst, Src1: s1, Src2: s2})
}

// SubI emits dst = s1 - imm.
func (b *Builder) SubI(dst, s1 isa.Reg, imm int64) *Builder {
	return b.emit(Inst{Fn: FnSub, Dst: dst, Src1: s1, Imm: -imm})
}

// And emits dst = s1 & imm (register form when s2 is given via AndR).
func (b *Builder) And(dst, s1 isa.Reg, imm int64) *Builder {
	return b.emit(Inst{Fn: FnAnd, Dst: dst, Src1: s1, Imm: imm})
}

// AndR emits dst = s1 & s2.
func (b *Builder) AndR(dst, s1, s2 isa.Reg) *Builder {
	return b.emit(Inst{Fn: FnAnd, Dst: dst, Src1: s1, Src2: s2})
}

// Or emits dst = s1 | s2.
func (b *Builder) Or(dst, s1, s2 isa.Reg) *Builder {
	return b.emit(Inst{Fn: FnOr, Dst: dst, Src1: s1, Src2: s2})
}

// Xor emits dst = s1 ^ s2.
func (b *Builder) Xor(dst, s1, s2 isa.Reg) *Builder {
	return b.emit(Inst{Fn: FnXor, Dst: dst, Src1: s1, Src2: s2})
}

// XorI emits dst = s1 ^ imm.
func (b *Builder) XorI(dst, s1 isa.Reg, imm int64) *Builder {
	return b.emit(Inst{Fn: FnXor, Dst: dst, Src1: s1, Imm: imm})
}

// Shl emits dst = s1 << imm.
func (b *Builder) Shl(dst, s1 isa.Reg, imm int64) *Builder {
	return b.emit(Inst{Fn: FnShl, Dst: dst, Src1: s1, Imm: imm})
}

// Shr emits dst = s1 >> imm.
func (b *Builder) Shr(dst, s1 isa.Reg, imm int64) *Builder {
	return b.emit(Inst{Fn: FnShr, Dst: dst, Src1: s1, Imm: imm})
}

// Mul emits dst = s1 * s2.
func (b *Builder) Mul(dst, s1, s2 isa.Reg) *Builder {
	return b.emit(Inst{Fn: FnMul, Dst: dst, Src1: s1, Src2: s2})
}

// MulI emits dst = s1 * imm.
func (b *Builder) MulI(dst, s1 isa.Reg, imm int64) *Builder {
	return b.emit(Inst{Fn: FnMulI, Dst: dst, Src1: s1, Imm: imm})
}

// Div emits dst = s1 / s2.
func (b *Builder) Div(dst, s1, s2 isa.Reg) *Builder {
	return b.emit(Inst{Fn: FnDiv, Dst: dst, Src1: s1, Src2: s2})
}

// FAdd emits a FP-class dst = s1 + s2.
func (b *Builder) FAdd(dst, s1, s2 isa.Reg) *Builder {
	return b.emit(Inst{Fn: FnFPAdd, Dst: dst, Src1: s1, Src2: s2})
}

// FMul emits a FP-class dst = s1 * s2.
func (b *Builder) FMul(dst, s1, s2 isa.Reg) *Builder {
	return b.emit(Inst{Fn: FnFPMul, Dst: dst, Src1: s1, Src2: s2})
}

// FDiv emits a FP-class dst = s1 / s2.
func (b *Builder) FDiv(dst, s1, s2 isa.Reg) *Builder {
	return b.emit(Inst{Fn: FnFPDiv, Dst: dst, Src1: s1, Src2: s2})
}

// Load emits dst = mem[base + disp].
func (b *Builder) Load(dst, base isa.Reg, disp int64) *Builder {
	return b.emit(Inst{Fn: FnLoad, Dst: dst, Src1: base, Imm: disp})
}

// Store emits mem[base + disp] = data.
func (b *Builder) Store(base isa.Reg, disp int64, data isa.Reg) *Builder {
	return b.emit(Inst{Fn: FnStore, Src1: base, Src2: data, Imm: disp})
}

// BEZ emits a branch to label when s1 == 0.
func (b *Builder) BEZ(s1 isa.Reg, label string) *Builder {
	return b.emitBranch(FnBEZ, s1, isa.RegZero, label)
}

// BNZ emits a branch to label when s1 != 0.
func (b *Builder) BNZ(s1 isa.Reg, label string) *Builder {
	return b.emitBranch(FnBNZ, s1, isa.RegZero, label)
}

// BLT emits a branch to label when int64(s1) < int64(s2).
func (b *Builder) BLT(s1, s2 isa.Reg, label string) *Builder {
	return b.emitBranch(FnBLT, s1, s2, label)
}

// BGE emits a branch to label when int64(s1) >= int64(s2).
func (b *Builder) BGE(s1, s2 isa.Reg, label string) *Builder {
	return b.emitBranch(FnBGE, s1, s2, label)
}

// Jump emits an unconditional jump to label.
func (b *Builder) Jump(label string) *Builder {
	return b.emitBranch(FnJump, isa.RegZero, isa.RegZero, label)
}

// Call emits a call to label.
func (b *Builder) Call(label string) *Builder {
	return b.emitBranch(FnCall, isa.RegZero, isa.RegZero, label)
}

// Ret emits a return.
func (b *Builder) Ret() *Builder { return b.emit(Inst{Fn: FnRet}) }

// JumpReg emits an indirect jump to the static index held in s1.
func (b *Builder) JumpReg(s1 isa.Reg) *Builder {
	return b.emit(Inst{Fn: FnJumpReg, Src1: s1})
}

// Halt emits the end-of-program marker (the executor restarts from entry).
func (b *Builder) Halt() *Builder { return b.emit(Inst{Fn: FnHalt}) }

// Build resolves labels and returns the validated program.
func (b *Builder) Build() (*Program, error) {
	for _, f := range b.fixups {
		idx, ok := b.labels[f.label]
		if !ok {
			b.errs = append(b.errs, fmt.Errorf("undefined label %q", f.label))
			continue
		}
		b.code[f.at].Target = idx
	}
	if len(b.errs) > 0 {
		return nil, fmt.Errorf("prog %q: %v", b.name, b.errs[0])
	}
	p := &Program{
		Name:     b.name,
		Code:     b.code,
		CodeBase: b.codeBase,
		InitMem:  b.initMem,
		InitRegs: b.initRegs,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build that panics on error; kernels are static so errors are
// programming mistakes.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
