package ooo

import (
	"math/rand"
	"sort"
	"testing"
)

// TestDoneHeapOrder pushes random completion keys, duplicates included, and
// pops some of them between pushes, as writeback does each cycle. Every pop
// must return the smallest key present in (cycle, slot) order, as sort.Slice
// orders the keys pushed so far.
func TestDoneHeapOrder(t *testing.T) {
	type ev struct {
		at   uint64
		slot int
	}
	byCycleSlot := func(evs []ev) {
		sort.Slice(evs, func(i, j int) bool {
			a, b := evs[i], evs[j]
			return a.at < b.at || (a.at == b.at && a.slot < b.slot)
		})
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		var h doneHeap
		var present []ev // pushed and not yet popped
		pop := func() {
			byCycleSlot(present)
			k := h.pop()
			got := ev{at: k >> slotBits, slot: int(k & (1<<slotBits - 1))}
			if got != present[0] {
				t.Fatalf("round %d: pop = %+v, want %+v", round, got, present[0])
			}
			present = present[1:]
		}
		for i, n := 0, rng.Intn(300); i < n; i++ {
			e := ev{at: 1 + uint64(rng.Intn(40)), slot: rng.Intn(448)}
			if len(present) > 0 && rng.Intn(4) == 0 {
				e = present[rng.Intn(len(present))] // a duplicate key
			}
			h.push(doneKey(e.at, e.slot))
			present = append(present, e)
			if rng.Intn(3) == 0 {
				pop()
			}
		}
		for len(present) > 0 {
			pop()
		}
		if len(h) != 0 {
			t.Fatalf("round %d: %d keys left after every pushed key popped", round, len(h))
		}
	}
}

// TestNewPanicsOnOversizedROB: a completion key names a slot in 16 bits, so
// New refuses a ROB it could not index.
func TestNewPanicsOnOversizedROB(t *testing.T) {
	cfg := Skylake()
	cfg.ROBSize = 1<<slotBits + 1
	defer func() {
		if recover() == nil {
			t.Error("New accepted a ROB of 1<<16 + 1 entries")
		}
	}()
	New(cfg, nil, &sliceSource{}, nil)
}
