package prog_test

import (
	"fmt"
	"reflect"
	"testing"

	"fvp/internal/isa"
	"fvp/internal/prog"
)

// fuzzProgInsts bounds how many dynamic instructions each fuzz execution
// draws: enough to loop through any generated program several times, small
// enough to keep the fuzzer fast.
const fuzzProgInsts = 4096

// buildFuzzProgram decodes the fuzz input into a builder program: five bytes
// per instruction (kind, three operand bytes, one immediate/target byte).
// Every instruction gets a label so branch targets — the only thing Validate
// could reject — can always be mapped onto a real label; the decoded program
// therefore exercises the builder and executor, not the error paths.
func buildFuzzProgram(data []byte) (*prog.Program, error) {
	const bytesPerInst = 5
	n := len(data) / bytesPerInst
	if n > 200 {
		n = 200
	}
	b := prog.NewBuilder("fuzz")
	// Seed a few registers and words so loads hit both written and
	// background-zero memory.
	b.InitReg(1, 0x1000)
	b.InitReg(2, 3)
	b.InitMem(0x1000, 0xDEAD)
	b.InitMem(0x1008, 0xBEEF)
	lbl := func(i int) string { return fmt.Sprintf("L%d", i) }
	reg := func(x byte) isa.Reg { return isa.Reg(x % isa.NumArchRegs) }
	for i := 0; i < n; i++ {
		rec := data[i*bytesPerInst : (i+1)*bytesPerInst]
		dst, s1, s2 := reg(rec[1]), reg(rec[2]), reg(rec[3])
		imm := int64(int8(rec[4]))
		target := lbl(int(rec[4]) % n)
		b.Label(lbl(i))
		switch rec[0] % 30 {
		case 0:
			b.Nop()
		case 1:
			b.MovI(dst, imm)
		case 2:
			b.Add(dst, s1, s2)
		case 3:
			b.AddI(dst, s1, imm)
		case 4:
			b.Sub(dst, s1, s2)
		case 5:
			b.SubI(dst, s1, imm)
		case 6:
			b.And(dst, s1, imm)
		case 7:
			b.AndR(dst, s1, s2)
		case 8:
			b.Or(dst, s1, s2)
		case 9:
			b.Xor(dst, s1, s2)
		case 10:
			b.XorI(dst, s1, imm)
		case 11:
			b.Shl(dst, s1, imm)
		case 12:
			b.Shr(dst, s1, imm)
		case 13:
			b.Mul(dst, s1, s2)
		case 14:
			b.MulI(dst, s1, imm)
		case 15:
			b.Div(dst, s1, s2)
		case 16:
			b.FAdd(dst, s1, s2)
		case 17:
			b.FMul(dst, s1, s2)
		case 18:
			b.FDiv(dst, s1, s2)
		case 19:
			b.Load(dst, s1, imm)
		case 20:
			b.Store(s1, imm, s2)
		case 21:
			b.BEZ(s1, target)
		case 22:
			b.BNZ(s1, target)
		case 23:
			b.BLT(s1, s2, target)
		case 24:
			b.BGE(s1, s2, target)
		case 25:
			b.Jump(target)
		case 26:
			b.Call(target)
		case 27:
			b.Ret()
		case 28:
			b.JumpReg(s1)
		case 29:
			b.Halt()
		}
	}
	// A trailing halt makes every program well-formed even when n == 0 and
	// guarantees fall-through off the end is impossible.
	b.Halt()
	return b.Build()
}

func runFuzzProgram(p *prog.Program) []isa.DynInst {
	return collectStream(prog.NewExec(p), fuzzProgInsts)
}

// fuzzSplit draws the split point of FuzzProgExec from the input's last two
// bytes.
func fuzzSplit(data []byte) uint64 {
	if len(data) < 2 {
		return 0
	}
	return (uint64(data[len(data)-2]) | uint64(data[len(data)-1])<<8) % (fuzzProgInsts + 1)
}

// FuzzProgExec feeds arbitrary builder programs through the functional
// executor: Build must either fail cleanly or yield a program whose execution
// never panics and is bit-identical across two independent runs. The OOO
// core, the trace codec and the golden-stat harness all assume exactly this
// determinism of the instruction stream.
//
// It also holds Run's two stepping loops to each other: after Run(k, nil),
// which steps without describing, Run(m, emit) must describe exactly the
// last m instructions of Run(k+m, emit) and reach the same Seq, and a
// checkpoint taken after either path must resume the same stream. The split
// k comes from the input (fuzzSplit).
func FuzzProgExec(f *testing.F) {
	// One seed per instruction-kind region plus mixed control flow.
	f.Add([]byte{})
	f.Add([]byte{1, 5, 0, 0, 42, 2, 6, 5, 5, 0, 29, 0, 0, 0, 0})
	f.Add([]byte{19, 3, 1, 0, 8, 20, 1, 0, 3, 8, 22, 0, 2, 0, 0})
	f.Add([]byte{26, 0, 0, 0, 3, 29, 0, 0, 0, 0, 0, 0, 0, 0, 0, 27, 0, 0, 0, 0})
	f.Add([]byte{15, 4, 2, 3, 7, 18, 4, 4, 4, 0, 28, 0, 2, 0, 0, 23, 1, 2, 0, 0})
	// The cases only one stepping loop handles apart from plain ALU work;
	// each ends in two split bytes. Call/Ret underflow: a call, its return,
	// then a ret with an empty stack, which restarts at 0.
	f.Add([]byte{26, 0, 0, 0, 2, 27, 0, 0, 0, 0, 27, 0, 0, 0, 0, 5, 0})
	// JumpReg out of range: past the end on the first pass, negative on
	// the later ones.
	f.Add([]byte{1, 5, 0, 0, 0xff, 21, 0, 6, 0, 3, 28, 0, 5, 0, 0, 1, 6, 0, 0, 1, 1, 4, 0, 0, 100, 28, 0, 4, 0, 0, 3, 1})
	// Halt with a call outstanding, which drops the stack.
	f.Add([]byte{3, 1, 1, 0, 1, 26, 0, 0, 0, 3, 0, 0, 0, 0, 0, 29, 0, 0, 0, 0, 0x39, 0x0c})
	// Every instruction kind runs once per pass (the jmpr goes to the
	// halt), and each pass computes from the last one's registers and
	// stored word, so a per-kind slip in either stepping loop fails without
	// fuzzing.
	f.Add([]byte{
		1, 9, 0, 0, 28, 0, 0, 0, 0, 0, 2, 3, 3, 4, 0, 3, 3, 3, 0, 5, 4, 3, 3, 2, 0,
		5, 3, 3, 0, 7, 6, 4, 3, 0, 63, 7, 5, 3, 4, 0, 8, 3, 3, 5, 0, 9, 3, 3, 4, 0,
		10, 3, 3, 0, 85, 11, 5, 3, 0, 37, 12, 6, 3, 0, 41, 13, 3, 3, 2, 0, 14, 3, 3, 0, 253,
		15, 7, 3, 4, 0, 16, 3, 3, 6, 0, 17, 3, 3, 2, 0, 18, 8, 3, 5, 0, 19, 4, 1, 0, 16,
		20, 0, 1, 3, 16, 21, 0, 7, 0, 22, 22, 0, 8, 0, 23, 23, 0, 3, 4, 24, 24, 0, 4, 3, 25,
		25, 0, 0, 0, 26, 26, 0, 0, 0, 29, 28, 0, 9, 0, 0, 29, 0, 0, 0, 0, 27, 0, 0, 0, 0,
		0x21, 0x03,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := buildFuzzProgram(data)
		if err != nil {
			t.Fatalf("fuzz program failed validation: %v", err)
		}
		first := runFuzzProgram(p)
		second := runFuzzProgram(p)
		if !reflect.DeepEqual(first, second) {
			for i := 0; i < len(first) && i < len(second); i++ {
				if first[i] != second[i] {
					t.Fatalf("executor nondeterministic at dynamic inst %d:\n first: %+v\nsecond: %+v",
						i, first[i], second[i])
				}
			}
			t.Fatalf("executor nondeterministic: lengths %d vs %d", len(first), len(second))
		}

		k := fuzzSplit(data)
		described, scanned := prog.NewExec(p), prog.NewExec(p)
		described.Run(k, func(*isa.DynInst) {})
		ran := scanned.Run(k, nil)
		if ran != described.Seq() || scanned.Seq() != ran {
			t.Fatalf("Run(%d, nil) executed %d to Seq %d; Run(%d, emit) reached Seq %d",
				k, ran, scanned.Seq(), k, described.Seq())
		}
		cpDescribed, cpScanned := described.Checkpoint(), scanned.Checkpoint()
		rest := collectStream(scanned, fuzzProgInsts-k)
		if !reflect.DeepEqual(rest, first[ran:]) {
			t.Fatalf("Run(%d, nil) then Run(%d, emit) is not the tail of Run(%d, emit)", k, fuzzProgInsts-k, fuzzProgInsts)
		}
		if scanned.Seq() != uint64(len(first)) {
			t.Fatalf("split run ended at Seq %d, whole run at %d", scanned.Seq(), len(first))
		}
		for name, cp := range map[string]*prog.Checkpoint{"Run(k, nil)": cpScanned, "Run(k, emit)": cpDescribed} {
			if got := collectStream(cp.Restore(), fuzzProgInsts-k); !reflect.DeepEqual(got, first[ran:]) {
				t.Fatalf("checkpoint after %s resumes a different stream", name)
			}
		}
	})
}
