package prog

import (
	"reflect"
	"slices"
	"testing"

	"fvp/internal/isa"
)

// run builds and executes a program for n steps, returning the executor.
func run(t *testing.T, b *Builder, n uint64) *Exec {
	t.Helper()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := NewExec(p)
	e.Run(n, nil)
	return e
}

func TestExecArithmetic(t *testing.T) {
	b := NewBuilder("arith")
	b.MovI(1, 10)
	b.MovI(2, 3)
	b.Add(3, 1, 2)    // 13
	b.Sub(4, 1, 2)    // 7
	b.Mul(5, 1, 2)    // 30
	b.Div(6, 1, 2)    // 3
	b.Xor(7, 1, 2)    // 9
	b.Shl(8, 1, 2)    // 10<<2 = 40 (shift amount is an immediate)
	b.Shr(9, 1, 1)    // 5
	b.AndR(10, 1, 2)  // 2
	b.Or(11, 1, 2)    // 11
	b.MulI(12, 1, -2) // -20
	b.Halt()
	e := run(t, b, 12)
	want := map[isa.Reg]uint64{
		3: 13, 4: 7, 5: 30, 6: 3, 7: 9, 8: 40, 9: 5, 10: 2, 11: 11,
		12: ^uint64(19), // -20 as two's complement
	}
	for r, v := range want {
		if got := e.Reg(r); got != v {
			t.Errorf("r%d = %d, want %d", r, got, v)
		}
	}
}

func TestExecDivByZero(t *testing.T) {
	b := NewBuilder("div0")
	b.MovI(1, 5)
	b.Div(2, 1, 3) // r3 = 0
	b.FDiv(4, 1, 3)
	b.Halt()
	e := run(t, b, 3)
	if e.Reg(2) != ^uint64(0) || e.Reg(4) != ^uint64(0) {
		t.Errorf("div by zero: r2=%#x r4=%#x, want all-ones", e.Reg(2), e.Reg(4))
	}
}

func TestExecMemory(t *testing.T) {
	b := NewBuilder("mem")
	b.InitMem(0x1000, 99)
	b.MovI(1, 0x1000)
	b.Load(2, 1, 0) // r2 = 99
	b.MovI(3, 123)
	b.Store(1, 8, 3) // [0x1008] = 123
	b.Load(4, 1, 8)  // r4 = 123
	b.Halt()
	e := run(t, b, 5)
	if e.Reg(2) != 99 {
		t.Errorf("load got %d, want 99", e.Reg(2))
	}
	if e.Reg(4) != 123 {
		t.Errorf("store/load roundtrip got %d, want 123", e.Reg(4))
	}
	if e.Mem(0x1008) != 123 {
		t.Errorf("memory holds %d, want 123", e.Mem(0x1008))
	}
}

func TestExecZeroRegisterImmutable(t *testing.T) {
	b := NewBuilder("zero")
	b.MovI(0, 42) // write to zero register discarded
	b.Add(1, 0, 0)
	b.Halt()
	e := run(t, b, 2)
	if e.Reg(0) != 0 {
		t.Errorf("zero register = %d", e.Reg(0))
	}
	if e.Reg(1) != 0 {
		t.Errorf("r1 = %d, want 0", e.Reg(1))
	}
}

func TestExecBranches(t *testing.T) {
	b := NewBuilder("br")
	b.MovI(1, 3)
	b.MovI(2, 0)
	b.Label("loop")
	b.AddI(2, 2, 10)
	b.SubI(1, 1, 1)
	b.BNZ(1, "loop")
	b.Halt()
	// Exactly one pass: 2 init + 3 iterations × 3 = 11 instructions
	// (running further would restart and re-clear the accumulator).
	e := run(t, b, 11)
	if e.Reg(2) != 30 {
		t.Errorf("loop accumulated %d, want 30", e.Reg(2))
	}
}

func TestExecBranchKinds(t *testing.T) {
	b := NewBuilder("brkinds")
	b.MovI(1, 5)
	b.MovI(2, 7)
	b.BLT(1, 2, "lt") // taken
	b.MovI(10, 1)     // skipped
	b.Label("lt")
	b.BGE(1, 2, "bad") // not taken
	b.MovI(11, 1)
	b.BGE(2, 1, "ge") // taken
	b.MovI(10, 1)     // skipped
	b.Label("ge")
	b.BEZ(0, "ez") // zero register: taken
	b.MovI(10, 1)
	b.Label("ez")
	b.Halt()
	b.Label("bad")
	b.MovI(12, 1)
	b.Halt()
	e := run(t, b, 20)
	if e.Reg(10) != 0 || e.Reg(12) != 0 {
		t.Errorf("wrong path taken: r10=%d r12=%d", e.Reg(10), e.Reg(12))
	}
	if e.Reg(11) != 1 {
		t.Error("fall-through path not executed")
	}
}

func TestExecCallRet(t *testing.T) {
	b := NewBuilder("call")
	b.Jump("main")
	b.Label("fn")
	b.AddI(2, 2, 1)
	b.Ret()
	b.Label("main")
	b.Call("fn")
	b.Call("fn")
	b.Halt()
	// One whole pass is 8 dynamic instructions (the executor would
	// restart after Halt, running fn again).
	e := run(t, b, 8)
	if e.Reg(2) != 2 {
		t.Errorf("function ran %d times, want 2", e.Reg(2))
	}
}

func TestExecRestartAfterHalt(t *testing.T) {
	b := NewBuilder("restart")
	b.AddI(1, 1, 1) // counts restarts (registers persist across restart)
	b.Halt()
	p := b.MustBuild()
	e := NewExec(p)
	var d isa.DynInst
	for i := 0; i < 10; i++ {
		if !e.Next(&d) {
			t.Fatal("unexpected halt with unlimited restarts")
		}
	}
	if e.Reg(1) != 5 {
		t.Errorf("restarted %d times, want 5", e.Reg(1))
	}
}

func TestExecMaxRestarts(t *testing.T) {
	b := NewBuilder("maxrestart")
	b.Nop()
	b.Halt()
	e := NewExec(b.MustBuild())
	e.MaxRestarts = 2
	var d isa.DynInst
	n := 0
	for e.Next(&d) {
		n++
		if n > 100 {
			t.Fatal("runaway")
		}
	}
	// 3 passes of (nop+halt), the final halt refuses the 3rd restart and
	// is not emitted.
	if n != 5 {
		t.Errorf("executed %d instructions, want 5", n)
	}
}

// stateDiff names the first architectural field in which a and b differ,
// or returns "".
func stateDiff(a, b *Exec) string {
	switch {
	case a.regs != b.regs:
		return "regs"
	case a.pc != b.pc:
		return "pc"
	case a.seq != b.seq:
		return "seq"
	case !slices.Equal(a.stack, b.stack):
		return "stack"
	case a.halted != b.halted:
		return "halted"
	case a.restarts != b.restarts:
		return "restarts"
	case !reflect.DeepEqual(a.mem.pages, b.mem.pages):
		return "memory"
	}
	return ""
}

// TestRunWithoutEmitHalts checks the describe-free path of Run against Next
// where the fuzzer cannot reach: a program that stops at FnHalt because
// MaxRestarts ran out, with a call outstanding and a call that writes a
// link register. For each budget and length, Run(n, nil) must execute as
// many instructions as Next and leave the same state, halt included.
func TestRunWithoutEmitHalts(t *testing.T) {
	p := &Program{
		Name: "halt",
		Code: []Inst{
			{Fn: FnAdd, Dst: 1, Src1: 1, Imm: 1},
			{Fn: FnStore, Src1: 2, Src2: 1, Imm: 0x100},
			{Fn: FnCall, Dst: 3, Target: 4},
			{Fn: FnHalt},
			{Fn: FnLoad, Dst: 4, Src1: 2, Imm: 0x100},
			{Fn: FnAnd, Dst: 5, Src1: 4, Imm: 1},
			{Fn: FnBNZ, Src1: 5, Target: 8}, // odd passes return first
			{Fn: FnHalt},                    // even passes halt inside the call
			{Fn: FnRet},
		},
		CodeBase: 0x400000,
		InitRegs: map[isa.Reg]uint64{2: 0x8000},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, restarts := range []int{0, 1, 3} {
		for _, n := range []uint64{0, 1, 7, 8, 16, 100} {
			next, skip := NewExec(p), NewExec(p)
			next.MaxRestarts, skip.MaxRestarts = restarts, restarts
			var want uint64
			var d isa.DynInst
			for want < n && next.Next(&d) {
				want++
			}
			if got := skip.Run(n, nil); got != want {
				t.Fatalf("MaxRestarts %d, n %d: Run(n, nil) executed %d, Next %d", restarts, n, got, want)
			}
			if f := stateDiff(next, skip); f != "" {
				t.Fatalf("MaxRestarts %d, n %d: Run(n, nil) and Next leave different %s", restarts, n, f)
			}
			if skip.halted && (skip.Run(1, nil) != 0 || skip.Next(&d)) {
				t.Fatalf("MaxRestarts %d: halted executor ran on", restarts)
			}
		}
	}
}

func TestExecDynInstFields(t *testing.T) {
	b := NewBuilder("fields")
	b.InitMem(0x2000, 5)
	b.MovI(1, 0x2000)
	b.Load(2, 1, 0)
	b.Store(1, 0, 2)
	b.BNZ(2, "t")
	b.Label("t")
	b.Halt()
	p := b.MustBuild()
	e := NewExec(p)
	var d isa.DynInst

	e.Next(&d) // movi
	if d.Op != isa.OpALU || d.Dst != 1 || d.Value != 0x2000 || d.Seq != 0 {
		t.Errorf("movi: %+v", d)
	}
	e.Next(&d) // load
	if d.Op != isa.OpLoad || d.Addr != 0x2000 || d.Value != 5 || d.MemSize != 8 {
		t.Errorf("load: %+v", d)
	}
	e.Next(&d) // store
	if d.Op != isa.OpStore || d.Addr != 0x2000 || d.Value != 5 {
		t.Errorf("store: %+v", d)
	}
	e.Next(&d) // branch
	if d.Op != isa.OpBranch || !d.Taken || d.Target != p.PCOf(4) {
		t.Errorf("branch: %+v", d)
	}
	if d.Seq != 3 {
		t.Errorf("seq = %d, want 3", d.Seq)
	}
}

func TestExecIndirectJump(t *testing.T) {
	b := NewBuilder("ijmp")
	b.MovI(1, 3) // static index of "target"
	b.JumpReg(1)
	b.MovI(2, 1)      // skipped
	b.Label("target") // index 3
	b.MovI(3, 1)
	b.Halt()
	e := run(t, b, 10)
	if e.Reg(2) != 0 || e.Reg(3) != 1 {
		t.Errorf("indirect jump: r2=%d r3=%d", e.Reg(2), e.Reg(3))
	}
}

func TestExecAddressAlignment(t *testing.T) {
	b := NewBuilder("align")
	b.InitMem(0x3000, 77)
	b.MovI(1, 0x3005) // unaligned base
	b.Load(2, 1, 0)   // aligned down to 0x3000
	b.Halt()
	e := run(t, b, 2)
	if e.Reg(2) != 77 {
		t.Errorf("unaligned load got %d, want 77 (align-down semantics)", e.Reg(2))
	}
}
