package branch

// ITTAGE predicts indirect-branch targets with the same tagged
// geometric-history structure as TAGE, but entries carry full targets
// instead of direction counters (Seznec & Michaud).
type ITTAGE struct {
	cfg  TAGEConfig
	base []ittEntry   // PC-indexed fallback
	tbl  [][]ittEntry // tagged history tables

	Lookups     uint64
	Mispredicts uint64
}

type ittEntry struct {
	tag    uint16
	target uint64
	conf   int8 // 2-bit confidence
	ucnt   uint8
}

// DefaultITTAGEConfig sizes the indirect predictor (smaller than the
// direction predictor, as indirect branches are rarer).
func DefaultITTAGEConfig() TAGEConfig {
	return TAGEConfig{
		BaseBits:  9,
		TableBits: 8,
		TagBits:   9,
		HistLens:  []uint{4, 12, 32, 64},
	}
}

// NewITTAGE builds an indirect-target predictor from cfg.
func NewITTAGE(cfg TAGEConfig) *ITTAGE {
	t := &ITTAGE{cfg: cfg}
	t.base = make([]ittEntry, 1<<cfg.BaseBits)
	t.tbl = make([][]ittEntry, len(cfg.HistLens))
	for i := range t.tbl {
		t.tbl[i] = make([]ittEntry, 1<<cfg.TableBits)
	}
	return t
}

// Reset restores the just-constructed state without reallocating the tables.
func (t *ITTAGE) Reset() {
	for i := range t.base {
		t.base[i] = ittEntry{}
	}
	for _, tbl := range t.tbl {
		for i := range tbl {
			tbl[i] = ittEntry{}
		}
	}
	t.Lookups = 0
	t.Mispredicts = 0
}

func (t *ITTAGE) baseIdx(pc uint64) uint64 {
	return (pc >> 2) & (1<<t.cfg.BaseBits - 1)
}

func (t *ITTAGE) idx(pc uint64, g *GlobalHistory, table int) uint64 {
	h := g.Fold(t.cfg.HistLens[table], t.cfg.TableBits)
	p := g.Path() & (1<<t.cfg.TableBits - 1)
	return ((pc >> 2) ^ h ^ p) & (1<<t.cfg.TableBits - 1)
}

func (t *ITTAGE) tag(pc uint64, g *GlobalHistory, table int) uint16 {
	h := g.Fold(t.cfg.HistLens[table], t.cfg.TagBits)
	return uint16(((pc >> 2) ^ (pc >> 12) ^ h) & (1<<t.cfg.TagBits - 1))
}

// ittState mirrors lookupState for the indirect predictor: the lookup
// visits the tables from the longest history down to the provider.
type ittState struct {
	provider int
	target   uint64
	hit      bool
	idx      [maxTables]uint32
	tag      [maxTables]uint16
}

// Predict returns the predicted target for the indirect branch at pc.
// ok is false when no table has any entry (cold predictor). The returned
// state must be passed back to Update.
func (t *ITTAGE) Predict(pc uint64, g *GlobalHistory) (uint64, bool, ittState) {
	t.Lookups++
	st := ittState{provider: -1}
	for i := len(t.tbl) - 1; i >= 0; i-- {
		ix, tag := t.idx(pc, g, i), t.tag(pc, g, i)
		st.idx[i], st.tag[i] = uint32(ix), tag
		e := &t.tbl[i][ix]
		if e.tag == tag && e.target != 0 {
			st.provider = i
			st.target = e.target
			st.hit = true
			return e.target, true, st
		}
	}
	e := &t.base[t.baseIdx(pc)]
	if e.target != 0 {
		st.target = e.target
		st.hit = true
		return e.target, true, st
	}
	return 0, false, st
}

// Update trains the predictor with the resolved target, on the entries
// st's lookup visited.
func (t *ITTAGE) Update(pc uint64, st ittState, target uint64) {
	correct := st.hit && st.target == target
	if !correct {
		t.Mispredicts++
	}

	if st.provider >= 0 {
		e := &t.tbl[st.provider][st.idx[st.provider]]
		if e.tag == st.tag[st.provider] {
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

	// Allocate a longer-history entry on a wrong or missing prediction.
	if !correct {
		start := st.provider + 1
		for i := start; i < len(t.tbl); i++ {
			e := &t.tbl[i][st.idx[i]]
			if e.ucnt == 0 {
				e.tag = st.tag[i]
				e.target = target
				e.conf = 0
				return
			}
		}
		for i := start; i < len(t.tbl); i++ {
			e := &t.tbl[i][st.idx[i]]
			if e.ucnt > 0 {
				e.ucnt--
			}
		}
	}
}
