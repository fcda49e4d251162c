package prog

import (
	"fmt"

	"fvp/internal/isa"
)

// Exec functionally executes a Program, producing the dynamic micro-op
// stream the timing model consumes. When the program halts, execution
// restarts from instruction 0 with registers and memory preserved, so a
// finite kernel yields an unbounded trace (each restart behaves like the
// next outer iteration of the workload).
type Exec struct {
	prog *Program
	// regs is the register file. regs[isa.RegZero] is always 0: the
	// steppers write a result to regs[Dst] unconditionally and zero it
	// again before the next instruction reads a source.
	regs  [isa.NumArchRegs]uint64
	mem   *Memory
	pc    int // static instruction index
	seq   uint64
	stack []int // call stack of static return indices
	// halted is set when the program executed FnHalt and MaxRestarts was
	// exhausted; Next then returns false.
	halted   bool
	restarts int
	// MaxRestarts bounds how many times the program may wrap around after
	// FnHalt; <0 means unlimited (the default from NewExec).
	MaxRestarts int
}

// fnOps is Fn.Op as a table, so the stepper reads an instruction's class
// with one load. Values past the last Fn map to OpNop, as Op does.
var fnOps = func() (t [256]isa.Op) {
	for f := range t {
		t[f] = Fn(f).Op()
	}
	return t
}()

// NewExec creates an executor positioned at the program entry, with the
// initial register file and memory image applied.
func NewExec(p *Program) *Exec {
	e := &Exec{
		prog:        p,
		mem:         p.BuildMemory(),
		MaxRestarts: -1,
	}
	for r, v := range p.InitRegs {
		if r != isa.RegZero {
			e.regs[r] = v
		}
	}
	return e
}

// Reg returns the current architectural value of r.
func (e *Exec) Reg(r isa.Reg) uint64 { return e.regs[r] }

// Mem returns the current 8-byte word at the (aligned-down) byte address.
func (e *Exec) Mem(addr uint64) uint64 { return e.mem.Read(addr) }

// Seq returns the number of dynamic instructions executed so far.
func (e *Exec) Seq() uint64 { return e.seq }

// Next executes one instruction and fills d with its architectural outcome.
// It returns false when the program has halted (only possible when
// MaxRestarts is set) or when the executor detects a runaway (pc escaped the
// program, which Validate-d programs cannot do).
//
// Next and scan step the same state the same way; FuzzProgExec holds them
// to each other.
func (e *Exec) Next(d *isa.DynInst) bool {
	if e.halted {
		return false
	}
	pc := e.pc
	if pc < 0 || pc >= len(e.prog.Code) {
		e.halted = true
		return false
	}
	in := &e.prog.Code[pc]
	s1, s2 := e.regs[in.Src1], e.regs[in.Src2]
	// Every field of d is assigned here, so nothing of the previous
	// instruction survives.
	d.Seq = e.seq
	d.PC = e.prog.PCOf(pc)
	d.Addr = 0
	d.Value = 0
	d.Target = 0
	d.Op = fnOps[in.Fn]
	d.Dst = in.Dst
	d.Src1 = in.Src1
	d.Src2 = in.Src2
	d.MemSize = 0
	d.Taken = false
	next := pc + 1

	switch in.Fn {
	case FnNop:
		d.Dst = isa.RegZero
	case FnMovI:
		d.Value = uint64(in.Imm)
	case FnAdd:
		d.Value = s1 + s2 + uint64(in.Imm)
	case FnSub:
		d.Value = s1 - s2 + uint64(in.Imm)
	case FnAnd:
		d.Value = s1 & (s2 | uint64(in.Imm))
	case FnOr:
		d.Value = s1 | s2 | uint64(in.Imm)
	case FnXor:
		d.Value = s1 ^ s2 ^ uint64(in.Imm)
	case FnShl:
		d.Value = s1 << (uint64(in.Imm) & 63)
	case FnShr:
		d.Value = s1 >> (uint64(in.Imm) & 63)
	case FnMul:
		d.Value = s1 * s2
	case FnMulI:
		d.Value = s1 * uint64(in.Imm)
	case FnDiv:
		d.Value = div(s1, s2)
	case FnFPAdd:
		d.Value = s1 + s2 + uint64(in.Imm)
	case FnFPMul:
		d.Value = s1 * s2
	case FnFPDiv:
		d.Value = div(s1, s2)
	case FnLoad:
		d.Addr = (s1 + uint64(in.Imm)) &^ 7
		d.MemSize = 8
		d.Value = e.mem.Read(d.Addr)
	case FnStore:
		d.Addr = (s1 + uint64(in.Imm)) &^ 7
		d.MemSize = 8
		d.Value = s2
		d.Dst = isa.RegZero
		e.mem.Write(d.Addr, s2)
	case FnBEZ, FnBNZ, FnBLT, FnBGE:
		d.Dst = isa.RegZero
		if taken(in.Fn, s1, s2) {
			d.Taken = true
			next = in.Target
		}
		d.Target = e.prog.PCOf(next)
	case FnJump:
		d.Dst = isa.RegZero
		d.Taken = true
		next = in.Target
		d.Target = e.prog.PCOf(next)
	case FnCall:
		d.Taken = true
		e.stack = append(e.stack, pc+1)
		d.Value = e.prog.PCOf(pc + 1)
		next = in.Target
		d.Target = e.prog.PCOf(next)
	case FnRet:
		d.Dst = isa.RegZero
		d.Taken = true
		next = e.ret()
		d.Target = e.prog.PCOf(next)
	case FnJumpReg:
		d.Dst = isa.RegZero
		d.Taken = true
		next = e.jumpReg(s1)
		d.Target = e.prog.PCOf(next)
	case FnHalt:
		d.Dst = isa.RegZero
		if !e.restart() {
			return false
		}
		next = 0
	default:
		panic(fmt.Sprintf("prog: unhandled fn %v", in.Fn))
	}

	// Instructions without a result have Dst RegZero by now.
	e.regs[d.Dst] = d.Value
	e.regs[isa.RegZero] = 0
	e.pc = next
	e.seq++
	return true
}

// scan executes up to n instructions as Next would, without describing
// them, and returns how many it executed.
func (e *Exec) scan(n uint64) uint64 {
	if e.halted {
		return 0
	}
	code := e.prog.Code
	regs := &e.regs
	pc := e.pc
	var done uint64
	for ; done < n; done++ {
		if pc < 0 || pc >= len(code) {
			e.halted = true
			break
		}
		in := &code[pc]
		s1, s2 := regs[in.Src1], regs[in.Src2]
		next := pc + 1
		switch in.Fn {
		case FnNop:
		case FnMovI:
			regs[in.Dst] = uint64(in.Imm)
		case FnAdd:
			regs[in.Dst] = s1 + s2 + uint64(in.Imm)
		case FnSub:
			regs[in.Dst] = s1 - s2 + uint64(in.Imm)
		case FnAnd:
			regs[in.Dst] = s1 & (s2 | uint64(in.Imm))
		case FnOr:
			regs[in.Dst] = s1 | s2 | uint64(in.Imm)
		case FnXor:
			regs[in.Dst] = s1 ^ s2 ^ uint64(in.Imm)
		case FnShl:
			regs[in.Dst] = s1 << (uint64(in.Imm) & 63)
		case FnShr:
			regs[in.Dst] = s1 >> (uint64(in.Imm) & 63)
		case FnMul:
			regs[in.Dst] = s1 * s2
		case FnMulI:
			regs[in.Dst] = s1 * uint64(in.Imm)
		case FnDiv:
			regs[in.Dst] = div(s1, s2)
		case FnFPAdd:
			regs[in.Dst] = s1 + s2 + uint64(in.Imm)
		case FnFPMul:
			regs[in.Dst] = s1 * s2
		case FnFPDiv:
			regs[in.Dst] = div(s1, s2)
		case FnLoad:
			regs[in.Dst] = e.mem.Read((s1 + uint64(in.Imm)) &^ 7)
		case FnStore:
			e.mem.Write((s1+uint64(in.Imm))&^7, s2)
		case FnBEZ, FnBNZ, FnBLT, FnBGE:
			if taken(in.Fn, s1, s2) {
				next = in.Target
			}
		case FnJump:
			next = in.Target
		case FnCall:
			e.stack = append(e.stack, pc+1)
			regs[in.Dst] = e.prog.PCOf(pc + 1)
			next = in.Target
		case FnRet:
			next = e.ret()
		case FnJumpReg:
			next = e.jumpReg(s1)
		case FnHalt:
			if !e.restart() {
				e.pc = pc
				e.seq += done
				return done
			}
			next = 0
		default:
			panic(fmt.Sprintf("prog: unhandled fn %v", in.Fn))
		}
		regs[isa.RegZero] = 0
		pc = next
	}
	e.pc = pc
	e.seq += done
	return done
}

func div(a, b uint64) uint64 {
	if b == 0 {
		return ^uint64(0)
	}
	return a / b
}

// taken resolves a conditional branch.
func taken(fn Fn, s1, s2 uint64) bool {
	switch fn {
	case FnBEZ:
		return s1 == 0
	case FnBNZ:
		return s1 != 0
	case FnBLT:
		return int64(s1) < int64(s2)
	}
	return int64(s1) >= int64(s2) // FnBGE
}

// ret pops the call stack and returns the index to resume at.
func (e *Exec) ret() int {
	n := len(e.stack)
	if n == 0 {
		return 0 // underflow: restart, keeps traces well-defined
	}
	next := e.stack[n-1]
	e.stack = e.stack[:n-1]
	return next
}

// jumpReg returns the index an indirect jump to s1 resumes at.
func (e *Exec) jumpReg(s1 uint64) int {
	if idx := int(s1); idx >= 0 && idx < len(e.prog.Code) {
		return idx
	}
	return 0
}

// restart accounts for executing FnHalt. It reports whether execution
// wraps around to instruction 0; when MaxRestarts is exhausted it marks the
// executor halted instead and reports false.
func (e *Exec) restart() bool {
	e.restarts++
	if e.MaxRestarts >= 0 && e.restarts > e.MaxRestarts {
		e.halted = true
		return false
	}
	e.stack = e.stack[:0]
	return true
}

// Run executes up to n instructions, calling emit for each (emit may be
// nil). It returns the number actually executed (less than n only when the
// program halted). With emit nil it steps the architectural state without
// describing each instruction, which is how checkpoint scans fast-forward.
func (e *Exec) Run(n uint64, emit func(*isa.DynInst)) uint64 {
	if emit == nil {
		return e.scan(n)
	}
	var d isa.DynInst
	var done uint64
	for done < n && e.Next(&d) {
		emit(&d)
		done++
	}
	return done
}
