package branch

// TAGE is a TAgged GEometric-history-length direction predictor (Seznec &
// Michaud). A bimodal base table backs N tagged tables indexed by PC hashed
// with geometrically increasing history lengths; the longest-history hit
// provides the prediction, with the "useful" bit steering allocation and an
// alternate-prediction fallback for weak newly-allocated entries.
type TAGE struct {
	cfg TAGEConfig
	// tagFoldIsIdx records that the tag's narrower fold, TagBits-1 bits
	// wide, has the index fold's width, TableBits: true in the default
	// configuration, where hash then folds each history twice, not three
	// times.
	tagFoldIsIdx bool

	base []int8 // bimodal counters, 2-bit
	tbl  [][]tageEntry

	// useAltOnNA is the Seznec counter that decides whether to trust a
	// weak (just-allocated) provider or its alternate prediction.
	useAltOnNA int8

	// stats
	Lookups     uint64
	Mispredicts uint64
}

type tageEntry struct {
	tag  uint16
	ctr  int8 // 3-bit signed counter: >=0 predicts taken
	ucnt uint8
}

// TAGEConfig sizes the predictor.
type TAGEConfig struct {
	// BaseBits is log2 of the bimodal table size.
	BaseBits uint
	// TableBits is log2 of each tagged table size.
	TableBits uint
	// TagBits is the per-table tag width.
	TagBits uint
	// HistLens lists the history length of each tagged table, shortest
	// first (geometric series in practice).
	HistLens []uint
}

// DefaultTAGEConfig is a 6-table configuration comparable to a mid-size
// TAGE-SC-L front end: geometric histories 4..64.
func DefaultTAGEConfig() TAGEConfig {
	return TAGEConfig{
		BaseBits:  13,
		TableBits: 10,
		TagBits:   11,
		HistLens:  []uint{4, 8, 14, 24, 40, 64},
	}
}

// maxTables bounds the tagged tables of a TAGE or ITTAGE: a lookup state
// carries one index and tag per table, so a predictor with more tables
// panics on its first lookup.
const maxTables = 8

// NewTAGE builds a predictor from cfg.
func NewTAGE(cfg TAGEConfig) *TAGE {
	t := &TAGE{cfg: cfg, tagFoldIsIdx: cfg.TagBits-1 == cfg.TableBits}
	t.base = make([]int8, 1<<cfg.BaseBits)
	t.tbl = make([][]tageEntry, len(cfg.HistLens))
	for i := range t.tbl {
		t.tbl[i] = make([]tageEntry, 1<<cfg.TableBits)
	}
	return t
}

// Reset restores the just-constructed state without reallocating the tables.
func (t *TAGE) Reset() {
	for i := range t.base {
		t.base[i] = 0
	}
	for _, tbl := range t.tbl {
		for i := range tbl {
			tbl[i] = tageEntry{}
		}
	}
	t.useAltOnNA = 0
	t.Lookups = 0
	t.Mispredicts = 0
}

func (t *TAGE) baseIdx(pc uint64) uint64 {
	return (pc >> 2) & (1<<t.cfg.BaseBits - 1)
}

// hash returns the index and tag of the branch at pc under g in one tagged
// table. The index folds the table's history length to TableBits bits;
// the tag XORs folds to TagBits and, shifted left one, TagBits-1 bits.
// Each distinct width is folded once.
func (t *TAGE) hash(pc uint64, g *GlobalHistory, table int) (uint32, uint16) {
	hl := t.cfg.HistLens[table]
	fIdx := g.Fold(hl, t.cfg.TableBits)
	fNarrow := fIdx
	if !t.tagFoldIsIdx {
		fNarrow = g.Fold(hl, t.cfg.TagBits-1)
	}
	idx := ((pc >> 2) ^ (pc >> (2 + t.cfg.TableBits)) ^ fIdx ^ g.Path()) & (1<<t.cfg.TableBits - 1)
	tag := ((pc >> 2) ^ g.Fold(hl, t.cfg.TagBits) ^ fNarrow<<1) & (1<<t.cfg.TagBits - 1)
	return uint32(idx), uint16(tag)
}

// lookupState records where a prediction came from, and the index and tag
// of every tagged table the lookup visited, so Update trains the entries
// the lookup read without hashing the history again, as a hardware TAGE
// carries its lookup indices with the branch. Predict visits the tables
// from the longest history down to the provider, which covers every table
// Update reads: the provider and all longer ones. Unit.PredictAndTrain
// calls Update right after Predict.
type lookupState struct {
	provider int // table index of provider, -1 = bimodal
	altPred  bool
	provPred bool
	provWeak bool
	pred     bool
	idx      [maxTables]uint32
	tag      [maxTables]uint16
}

// Predict returns the predicted direction for the conditional branch at pc
// under history g. The returned state must be passed back to Update.
func (t *TAGE) Predict(pc uint64, g *GlobalHistory) (bool, lookupState) {
	t.Lookups++
	st := lookupState{provider: -1}
	st.altPred = t.base[t.baseIdx(pc)] >= 0
	altFrom := -1
	for i := len(t.tbl) - 1; i >= 0; i-- {
		ix, tag := t.hash(pc, g, i)
		st.idx[i], st.tag[i] = ix, tag
		e := &t.tbl[i][ix]
		if e.tag != tag {
			continue
		}
		if st.provider < 0 {
			st.provider = i
			st.provPred = e.ctr >= 0
			st.provWeak = e.ctr == 0 || e.ctr == -1
		} else if altFrom < 0 {
			altFrom = i
			st.altPred = e.ctr >= 0
		}
		if st.provider >= 0 && altFrom >= 0 {
			break
		}
	}
	if st.provider < 0 {
		st.pred = st.altPred
	} else if st.provWeak && t.useAltOnNA >= 0 {
		st.pred = st.altPred
	} else {
		st.pred = st.provPred
	}
	return st.pred, st
}

func satInc(c int8, max int8) int8 {
	if c < max {
		return c + 1
	}
	return c
}

func satDec(c int8, min int8) int8 {
	if c > min {
		return c - 1
	}
	return c
}

// Update trains the predictor with the resolved direction, on the entries
// st's lookup visited. It also performs TAGE allocation when the provider
// mispredicted.
func (t *TAGE) Update(pc uint64, st lookupState, taken bool) {
	if st.pred != taken {
		t.Mispredicts++
	}

	// Train useAltOnNA when the provider was weak and disagreed with alt.
	if st.provider >= 0 && st.provWeak && st.provPred != st.altPred {
		if st.altPred == taken {
			t.useAltOnNA = satInc(t.useAltOnNA, 7)
		} else {
			t.useAltOnNA = satDec(t.useAltOnNA, -8)
		}
	}

	if st.provider >= 0 {
		e := &t.tbl[st.provider][st.idx[st.provider]]
		if e.tag == st.tag[st.provider] {
			if taken {
				e.ctr = satInc(e.ctr, 3)
			} else {
				e.ctr = satDec(e.ctr, -4)
			}
			// Useful bit: provider correct and alternate wrong.
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

	// Allocate a longer-history entry on misprediction.
	if st.pred != taken && st.provider < len(t.tbl)-1 {
		start := st.provider + 1
		allocated := false
		for i := start; i < len(t.tbl); i++ {
			e := &t.tbl[i][st.idx[i]]
			if e.ucnt == 0 {
				e.tag = st.tag[i]
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
			// Decay usefulness so future allocations can succeed.
			for i := start; i < len(t.tbl); i++ {
				e := &t.tbl[i][st.idx[i]]
				if e.ucnt > 0 {
					e.ucnt--
				}
			}
		}
	}
}

// MispredictRate returns mispredicts per lookup (0 when no lookups).
func (t *TAGE) MispredictRate() float64 {
	if t.Lookups == 0 {
		return 0
	}
	return float64(t.Mispredicts) / float64(t.Lookups)
}
