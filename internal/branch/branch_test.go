package branch

import (
	"testing"
	"testing/quick"

	"fvp/internal/isa"
)

func TestGlobalHistoryPushBits(t *testing.T) {
	var g GlobalHistory
	g.Push(0x100, true)
	g.Push(0x104, false)
	g.Push(0x108, true)
	if got := g.Bits(3); got != 0b101 {
		t.Errorf("Bits(3) = %b, want 101", got)
	}
	if got := g.Bits(1); got != 1 {
		t.Errorf("Bits(1) = %b, want 1", got)
	}
}

// Property: folding never exceeds the output width.
func TestFoldWidthProperty(t *testing.T) {
	f := func(bits uint64, histLen, outBits uint8) bool {
		g := GlobalHistory{bits: bits}
		ob := uint(outBits%16) + 1
		folded := g.Fold(uint(histLen%64)+1, ob)
		return folded < 1<<ob
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTAGEHashMatchesFold holds TAGE.hash to the Fold-based refIdx and
// refTag over random histories, paths and PCs: in the default and
// FuzzBranchHashes' tiny configuration, where the tag's narrower fold is
// the index fold and hash reuses it, and in one where the widths differ.
func TestTAGEHashMatchesFold(t *testing.T) {
	cfgs := []struct {
		name  string
		cfg   TAGEConfig
		reuse bool
	}{
		{"default", DefaultTAGEConfig(), true},
		{"tiny", TAGEConfig{BaseBits: 2, TableBits: 2, TagBits: 3, HistLens: []uint{2, 5, 11, 24}}, true},
		{"wide-tags", TAGEConfig{BaseBits: 4, TableBits: 7, TagBits: 12, HistLens: []uint{3, 9, 27, 64}}, false},
	}
	for _, c := range cfgs {
		tg := NewTAGE(c.cfg)
		if tg.tagFoldIsIdx != c.reuse {
			t.Errorf("%s: tagFoldIsIdx = %v, want %v", c.name, tg.tagFoldIsIdx, c.reuse)
		}
		f := func(bits, path, pc uint64) bool {
			g := GlobalHistory{bits: bits, path: path}
			for i := range c.cfg.HistLens {
				ix, tag := tg.hash(pc, &g, i)
				if uint64(ix) != tg.refIdx(pc, &g, i) || tag != tg.refTag(pc, &g, i) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func TestRASLIFO(t *testing.T) {
	r := NewRAS(4)
	r.Push(1)
	r.Push(2)
	r.Push(3)
	for want := uint64(3); want >= 1; want-- {
		got, ok := r.Pop()
		if !ok || got != want {
			t.Fatalf("Pop = %d,%v want %d", got, ok, want)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Error("empty stack must report not-ok")
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites 1
	if v, _ := r.Pop(); v != 3 {
		t.Errorf("got %d, want 3", v)
	}
	if v, _ := r.Pop(); v != 2 {
		t.Errorf("got %d, want 2", v)
	}
	if _, ok := r.Pop(); ok {
		t.Error("the overwritten entry must be gone")
	}
}

// trainTAGE runs predict/update over a branch outcome function.
func trainTAGE(t *TAGE, g *GlobalHistory, pc uint64, n int, outcome func(i int) bool) (correct int) {
	for i := 0; i < n; i++ {
		taken := outcome(i)
		pred, st := t.Predict(pc, g)
		if pred == taken {
			correct++
		}
		t.Update(pc, st, taken)
		g.Push(pc, taken)
	}
	return correct
}

func TestTAGEAlwaysTaken(t *testing.T) {
	tg := NewTAGE(DefaultTAGEConfig())
	var g GlobalHistory
	correct := trainTAGE(tg, &g, 0x400, 2000, func(int) bool { return true })
	if float64(correct)/2000 < 0.98 {
		t.Errorf("always-taken accuracy %d/2000", correct)
	}
}

func TestTAGEAlternating(t *testing.T) {
	tg := NewTAGE(DefaultTAGEConfig())
	var g GlobalHistory
	// T,N,T,N... perfectly captured by 1 bit of history.
	correct := trainTAGE(tg, &g, 0x800, 4000, func(i int) bool { return i%2 == 0 })
	if float64(correct)/4000 < 0.95 {
		t.Errorf("alternating accuracy %d/4000", correct)
	}
}

func TestTAGELongPattern(t *testing.T) {
	tg := NewTAGE(DefaultTAGEConfig())
	var g GlobalHistory
	// Period-7 pattern requires real history correlation.
	correct := trainTAGE(tg, &g, 0xC00, 8000, func(i int) bool { return i%7 == 3 })
	if float64(correct)/8000 < 0.9 {
		t.Errorf("period-7 accuracy %d/8000 = %.3f", correct, float64(correct)/8000)
	}
}

func TestTAGERandomIsHard(t *testing.T) {
	tg := NewTAGE(DefaultTAGEConfig())
	var g GlobalHistory
	state := uint64(12345)
	rnd := func(int) bool {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state&1 == 1
	}
	correct := trainTAGE(tg, &g, 0xF00, 4000, rnd)
	frac := float64(correct) / 4000
	if frac > 0.65 {
		t.Errorf("random branches predicted at %.3f — predictor is cheating", frac)
	}
}

func TestTAGEMispredictRate(t *testing.T) {
	tg := NewTAGE(DefaultTAGEConfig())
	var g GlobalHistory
	trainTAGE(tg, &g, 0x123, 1000, func(int) bool { return true })
	if tg.Lookups != 1000 {
		t.Errorf("lookups = %d", tg.Lookups)
	}
	if r := tg.MispredictRate(); r > 0.05 {
		t.Errorf("mispredict rate %.3f on constant branch", r)
	}
}

func TestITTAGELearnsTarget(t *testing.T) {
	it := NewITTAGE(DefaultITTAGEConfig())
	var g GlobalHistory
	const pc, tgt = 0x900, 0x5000
	for i := 0; i < 50; i++ {
		_, _, st := it.Predict(pc, &g)
		it.Update(pc, st, tgt)
	}
	got, ok, _ := it.Predict(pc, &g)
	if !ok || got != tgt {
		t.Errorf("target = %#x,%v want %#x", got, ok, tgt)
	}
}

func TestITTAGEHistoryCorrelatedTargets(t *testing.T) {
	it := NewITTAGE(DefaultITTAGEConfig())
	var g GlobalHistory
	const pc = 0xA00
	// Target alternates with the preceding branch direction.
	correct := 0
	for i := 0; i < 6000; i++ {
		dir := i%2 == 0
		g.Push(0xB00, dir)
		want := uint64(0x6000)
		if dir {
			want = 0x7000
		}
		got, ok, st := it.Predict(pc, &g)
		if ok && got == want {
			correct++
		}
		it.Update(pc, st, want)
	}
	if float64(correct)/6000 < 0.9 {
		t.Errorf("correlated-target accuracy %d/6000", correct)
	}
}

func TestUnitDirectBranches(t *testing.T) {
	u := NewDefaultUnit()
	// Unconditional direct jump is always correct.
	d := isa.DynInst{Op: isa.OpJump, PC: 0x100, Taken: true, Target: 0x200}
	if !u.PredictAndTrain(&d) {
		t.Error("jump must always predict correctly")
	}
	// Call pushes RAS; matching return predicts correctly.
	c := isa.DynInst{Op: isa.OpCall, PC: 0x300, Taken: true, Target: 0x400}
	u.PredictAndTrain(&c)
	r := isa.DynInst{Op: isa.OpRet, PC: 0x404, Taken: true, Target: 0x304}
	if !u.PredictAndTrain(&r) {
		t.Error("return after call must predict via RAS")
	}
	// Unbalanced return mispredicts.
	r2 := isa.DynInst{Op: isa.OpRet, PC: 0x408, Taken: true, Target: 0x999}
	if u.PredictAndTrain(&r2) {
		t.Error("return with empty RAS must mispredict")
	}
}

func TestUnitConditionalTrainsHistory(t *testing.T) {
	u := NewDefaultUnit()
	d := isa.DynInst{Op: isa.OpBranch, PC: 0x500, Taken: true, Target: 0x600}
	before := u.Hist.Bits(64)
	u.PredictAndTrain(&d)
	if u.Hist.Bits(64) == before && u.Hist.Bits(1) != 1 {
		t.Error("conditional branch must push history")
	}
	// Train to convergence.
	correct := 0
	for i := 0; i < 500; i++ {
		if u.PredictAndTrain(&d) {
			correct++
		}
	}
	if correct < 450 {
		t.Errorf("constant conditional learned %d/500", correct)
	}
}
