// Package memdep implements the store-sets memory-dependence predictor of
// Chrysos & Emer, which the simulated core uses as its "aggressive memory
// disambiguation predictor" (paper Table II). Loads issue speculatively past
// stores with unresolved addresses unless the predictor has learned, from
// past ordering violations, that the load belongs to a store's set.
package memdep

// StoreSets is the SSIT + LFST pair.
//
// SSIT (store-set ID table) maps instruction PCs (loads and stores) to a
// store-set ID. LFST (last fetched store table) maps a store-set ID to the
// sequence number of the most recently dispatched store in that set. A load
// whose PC has a valid SSID must wait for LFST[SSID]; a store with a valid
// SSID inherits the same ordering and then becomes the set's last store.
type StoreSets struct {
	ssit     []uint32 // 0 = invalid, otherwise SSID+1
	ssitMask uint64
	lfst     []lfstEntry
	nextSSID uint32

	Violations  uint64
	Assignments uint64
}

type lfstEntry struct {
	seq   uint64
	valid bool
}

// New builds a predictor with 2^ssitBits SSIT entries and 2^lfstBits store
// sets.
func New(ssitBits, lfstBits uint) *StoreSets {
	return &StoreSets{
		ssit:     make([]uint32, 1<<ssitBits),
		ssitMask: 1<<ssitBits - 1,
		lfst:     make([]lfstEntry, 1<<lfstBits),
	}
}

func (s *StoreSets) idx(pc uint64) uint64 { return (pc >> 2) & s.ssitMask }

func (s *StoreSets) ssidOf(pc uint64) (uint32, bool) {
	v := s.ssit[s.idx(pc)]
	if v == 0 {
		return 0, false
	}
	return (v - 1) % uint32(len(s.lfst)), true
}

// DispatchLoad is called when a load enters the window. It returns the
// sequence number of the store the load must wait for, if any.
func (s *StoreSets) DispatchLoad(pc uint64) (waitFor uint64, ok bool) {
	ssid, valid := s.ssidOf(pc)
	if !valid {
		return 0, false
	}
	e := s.lfst[ssid]
	return e.seq, e.valid
}

// DispatchStore is called when a store enters the window. It returns the
// older store this one must order after (store-store ordering within a set)
// and records this store as the set's last.
func (s *StoreSets) DispatchStore(pc, seq uint64) (waitFor uint64, ok bool) {
	ssid, valid := s.ssidOf(pc)
	if !valid {
		return 0, false
	}
	e := s.lfst[ssid]
	s.lfst[ssid] = lfstEntry{seq: seq, valid: true}
	return e.seq, e.valid
}

// CompleteStore clears the LFST entry if this store is still the set's last
// (so later loads stop waiting on an already-executed store).
func (s *StoreSets) CompleteStore(pc, seq uint64) {
	ssid, valid := s.ssidOf(pc)
	if !valid {
		return
	}
	if e := s.lfst[ssid]; e.valid && e.seq == seq {
		s.lfst[ssid] = lfstEntry{}
	}
}

// Violation trains the predictor after the core detected that the load at
// loadPC issued before a conflicting older store at storePC. Both PCs are
// merged into one store set per the store-sets assignment rules.
func (s *StoreSets) Violation(loadPC, storePC uint64) {
	s.Violations++
	li, si := s.idx(loadPC), s.idx(storePC)
	lv, sv := s.ssit[li], s.ssit[si]
	switch {
	case lv == 0 && sv == 0:
		s.nextSSID++
		id := s.nextSSID
		s.ssit[li], s.ssit[si] = id, id
		s.Assignments++
	case lv != 0 && sv == 0:
		s.ssit[si] = lv
	case lv == 0 && sv != 0:
		s.ssit[li] = sv
	default:
		// Both assigned: converge on the smaller ID (declining merge).
		if lv < sv {
			s.ssit[si] = lv
		} else {
			s.ssit[li] = sv
		}
	}
}

// Reset restores the just-constructed state (empty SSIT and LFST, zeroed
// counters) without reallocating the tables.
func (s *StoreSets) Reset() {
	for i := range s.ssit {
		s.ssit[i] = 0
	}
	for i := range s.lfst {
		s.lfst[i] = lfstEntry{}
	}
	s.nextSSID = 0
	s.Violations = 0
	s.Assignments = 0
}

// Flush invalidates all LFST entries (on pipeline squash the recorded store
// sequence numbers may refer to squashed stores).
func (s *StoreSets) Flush() {
	for i := range s.lfst {
		s.lfst[i] = lfstEntry{}
	}
}
