package branch

import (
	"fmt"
	"slices"
	"testing"

	"fvp/internal/isa"
)

// refIdx and refTag are the reference for TAGE.hash: the index and tag
// formulas written directly on Fold, one fold per use.
func (t *TAGE) refIdx(pc uint64, g *GlobalHistory, table int) uint64 {
	hl := t.cfg.HistLens[table]
	h := g.Fold(hl, t.cfg.TableBits)
	p := g.Path() & (1<<t.cfg.TableBits - 1)
	return ((pc >> 2) ^ (pc >> (2 + t.cfg.TableBits)) ^ h ^ p) & (1<<t.cfg.TableBits - 1)
}

func (t *TAGE) refTag(pc uint64, g *GlobalHistory, table int) uint16 {
	hl := t.cfg.HistLens[table]
	h := g.Fold(hl, t.cfg.TagBits)
	h2 := g.Fold(hl, t.cfg.TagBits-1) << 1
	return uint16(((pc >> 2) ^ h ^ h2) & (1<<t.cfg.TagBits - 1))
}

// refUpdate is the reference for TAGE.Update: it re-folds the lookup-time
// history g to find the entries to train, where Update reads the indices
// and tags its Predict recorded.
func (t *TAGE) refUpdate(pc uint64, g *GlobalHistory, st lookupState, taken bool) {
	if st.pred != taken {
		t.Mispredicts++
	}
	if st.provider >= 0 && st.provWeak && st.provPred != st.altPred {
		if st.altPred == taken {
			t.useAltOnNA = satInc(t.useAltOnNA, 7)
		} else {
			t.useAltOnNA = satDec(t.useAltOnNA, -8)
		}
	}
	if st.provider >= 0 {
		e := &t.tbl[st.provider][t.refIdx(pc, g, st.provider)]
		if e.tag == t.refTag(pc, g, st.provider) {
			if taken {
				e.ctr = satInc(e.ctr, 3)
			} else {
				e.ctr = satDec(e.ctr, -4)
			}
			if st.provPred == taken && st.altPred != taken {
				if e.ucnt < 3 {
					e.ucnt++
				}
			} else if st.provPred != taken && st.altPred == taken && e.ucnt > 0 {
				e.ucnt--
			}
		}
	} else {
		i := t.baseIdx(pc)
		if taken {
			t.base[i] = satInc(t.base[i], 1)
		} else {
			t.base[i] = satDec(t.base[i], -2)
		}
	}
	if st.pred != taken && st.provider < len(t.tbl)-1 {
		start := st.provider + 1
		allocated := false
		for i := start; i < len(t.tbl); i++ {
			e := &t.tbl[i][t.refIdx(pc, g, i)]
			if e.ucnt == 0 {
				e.tag = t.refTag(pc, g, i)
				if taken {
					e.ctr = 0
				} else {
					e.ctr = -1
				}
				allocated = true
				break
			}
		}
		if !allocated {
			for i := start; i < len(t.tbl); i++ {
				e := &t.tbl[i][t.refIdx(pc, g, i)]
				if e.ucnt > 0 {
					e.ucnt--
				}
			}
		}
	}
}

// refUpdate is the reference for ITTAGE.Update, re-folding the lookup-time
// history g as TAGE's reference does.
func (t *ITTAGE) refUpdate(pc uint64, g *GlobalHistory, st ittState, target uint64) {
	correct := st.hit && st.target == target
	if !correct {
		t.Mispredicts++
	}
	if st.provider >= 0 {
		e := &t.tbl[st.provider][t.idx(pc, g, st.provider)]
		if e.tag == t.tag(pc, g, st.provider) {
			if e.target == target {
				if e.conf < 3 {
					e.conf++
				}
				if e.ucnt < 3 {
					e.ucnt++
				}
			} else if e.conf > 0 {
				e.conf--
			} else {
				e.target = target
				if e.ucnt > 0 {
					e.ucnt--
				}
			}
		}
	} else {
		e := &t.base[t.baseIdx(pc)]
		if e.target == target {
			if e.conf < 3 {
				e.conf++
			}
		} else if e.conf > 0 {
			e.conf--
		} else {
			e.target = target
		}
	}
	if !correct {
		start := st.provider + 1
		for i := start; i < len(t.tbl); i++ {
			e := &t.tbl[i][t.idx(pc, g, i)]
			if e.ucnt == 0 {
				e.tag = t.tag(pc, g, i)
				e.target = target
				e.conf = 0
				return
			}
		}
		for i := start; i < len(t.tbl); i++ {
			e := &t.tbl[i][t.idx(pc, g, i)]
			if e.ucnt > 0 {
				e.ucnt--
			}
		}
	}
}

// refPredictAndTrain is Unit.PredictAndTrain on the reference updates: it
// keeps a copy of the history from before the lookup for them to re-fold.
func refPredictAndTrain(u *Unit, d *isa.DynInst) bool {
	snap := u.Hist
	switch d.Op {
	case isa.OpBranch:
		pred, st := u.Dir.Predict(d.PC, &u.Hist)
		u.Dir.refUpdate(d.PC, &snap, st, d.Taken)
		u.Hist.Push(d.PC, d.Taken)
		return pred == d.Taken
	case isa.OpIndirect:
		tgt, ok, st := u.Indirect.Predict(d.PC, &u.Hist)
		u.Indirect.refUpdate(d.PC, &snap, st, d.Target)
		return ok && tgt == d.Target
	}
	panic("refPredictAndTrain: not a conditional or indirect branch")
}

// unitDiff names the first difference between the history and the TAGE and
// ITTAGE state of a and b, or returns "" when there is none.
func unitDiff(a, b *Unit) string {
	switch {
	case a.Hist != b.Hist:
		return fmt.Sprintf("history: %+v vs %+v", a.Hist, b.Hist)
	case !slices.Equal(a.Dir.base, b.Dir.base):
		return "TAGE bimodal table"
	case a.Dir.useAltOnNA != b.Dir.useAltOnNA:
		return fmt.Sprintf("TAGE useAltOnNA: %d vs %d", a.Dir.useAltOnNA, b.Dir.useAltOnNA)
	case a.Dir.Lookups != b.Dir.Lookups || a.Dir.Mispredicts != b.Dir.Mispredicts:
		return "TAGE stats"
	case !slices.Equal(a.Indirect.base, b.Indirect.base):
		return "ITTAGE base table"
	case a.Indirect.Lookups != b.Indirect.Lookups || a.Indirect.Mispredicts != b.Indirect.Mispredicts:
		return "ITTAGE stats"
	}
	for i := range a.Dir.tbl {
		if !slices.Equal(a.Dir.tbl[i], b.Dir.tbl[i]) {
			return fmt.Sprintf("TAGE table %d", i)
		}
	}
	for i := range a.Indirect.tbl {
		if !slices.Equal(a.Indirect.tbl[i], b.Indirect.tbl[i]) {
			return fmt.Sprintf("ITTAGE table %d", i)
		}
	}
	return ""
}

// FuzzBranchHashes drives a default Unit and a copy on the reference
// updates with one stream of conditional and indirect branches, and demands
// the same prediction outcome and the same history and table entries after
// every branch. A second pair of units, with 4-entry tables, sees the same
// stream: there entries collide, so allocation often finds no free entry
// and decays usefulness instead, which the default tables rarely do. Each
// branch takes 3 bytes: bit 0 of the first picks a conditional or an
// indirect branch and its other bits, with the low 2 bits of the third, one
// of 512 PCs; bit 0 of the second is the direction and its bits 1–3 pick
// one of 8 targets. The seed corpus is in testdata/fuzz/FuzzBranchHashes.
func FuzzBranchHashes(f *testing.F) {
	tiny := TAGEConfig{BaseBits: 2, TableBits: 2, TagBits: 3, HistLens: []uint{2, 5, 11, 24}}
	f.Fuzz(func(t *testing.T, data []byte) {
		pairs := [][2]*Unit{
			{NewDefaultUnit(), NewDefaultUnit()},
			{NewUnit(tiny, tiny, 4), NewUnit(tiny, tiny, 4)},
		}
		for n := 0; len(data) >= 3; n++ {
			d := isa.DynInst{
				Op:     isa.OpBranch,
				PC:     0x400000 + (uint64(data[0]>>1)|uint64(data[2]&3)<<7)<<2,
				Taken:  data[1]&1 != 0,
				Target: 0x500000 + uint64(data[1]>>1&7)<<6,
			}
			if data[0]&1 != 0 {
				d.Op, d.Taken = isa.OpIndirect, true
			}
			data = data[3:]
			for i, p := range pairs {
				got, ref := p[0], p[1]
				if g, w := got.PredictAndTrain(&d), refPredictAndTrain(ref, &d); g != w {
					t.Fatalf("unit %d, branch %d (%+v): predicted correctly = %v, reference %v", i, n, d, g, w)
				}
				if diff := unitDiff(got, ref); diff != "" {
					t.Fatalf("unit %d, branch %d (%+v): differs from the reference at %s", i, n, d, diff)
				}
			}
		}
	})
}
