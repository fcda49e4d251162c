package prog

import (
	"testing"
	"testing/quick"
)

func TestMemoryZeroDefault(t *testing.T) {
	m := NewMemory()
	if m.Read(0x1234_5678) != 0 {
		t.Error("untouched memory must read zero")
	}
}

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory()
	m.Write(0x1000, 42)
	if got := m.Read(0x1000); got != 42 {
		t.Errorf("got %d", got)
	}
	// Unaligned access aligns down to the same word.
	if got := m.Read(0x1003); got != 42 {
		t.Errorf("unaligned read got %d", got)
	}
	m.Write(0x1007, 7)
	if got := m.Read(0x1000); got != 7 {
		t.Errorf("unaligned write: got %d, want 7", got)
	}
}

func TestMemoryBackground(t *testing.T) {
	bg := func(addr uint64) uint64 { return addr * 3 }
	m := NewMemory()
	m.SetBackground(bg)
	if got := m.Read(0x2000); got != 0x6000 {
		t.Errorf("background read got %#x", got)
	}
	// A write materializes the page, preserving background values of
	// neighbours.
	m.Write(0x2008, 1)
	if got := m.Read(0x2010); got != 0x2010*3 {
		t.Errorf("neighbour after write got %#x, want background", got)
	}
	if got := m.Read(0x2008); got != 1 {
		t.Errorf("written word got %d", got)
	}
}

func TestMemoryClone(t *testing.T) {
	m := NewMemory()
	m.SetBackground(func(a uint64) uint64 { return ^a })
	m.Write(0x100, 9)
	c := m.Clone()
	c.Write(0x100, 10)
	if m.Read(0x100) != 9 {
		t.Error("clone write leaked into original")
	}
	if c.Read(0x100) != 10 {
		t.Error("clone lost its write")
	}
	if c.Read(0x5000) != ^uint64(0x5000) {
		t.Error("clone lost the background function")
	}
}

func TestMemoryPages(t *testing.T) {
	m := NewMemory()
	m.Write(0, 1)
	m.Write(4095, 1) // same 4 KiB page
	if m.Pages() != 1 {
		t.Errorf("pages = %d, want 1", m.Pages())
	}
	m.Write(4096, 1)
	if m.Pages() != 2 {
		t.Errorf("pages = %d, want 2", m.Pages())
	}
}

// Property: Memory behaves like a map keyed by aligned address.
func TestMemoryMatchesMap(t *testing.T) {
	type op struct {
		Write bool
		Addr  uint16 // keep the space small so reads hit writes
		Val   uint64
	}
	f := func(ops []op) bool {
		m := NewMemory()
		ref := map[uint64]uint64{}
		for _, o := range ops {
			a := uint64(o.Addr)
			if o.Write {
				m.Write(a, o.Val)
				ref[a&^7] = o.Val
			} else if m.Read(a) != ref[a&^7] {
				return false
			}
		}
		for a, v := range ref {
			if m.Read(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Error("different seeds should diverge immediately")
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed must be remapped (xorshift fixed point)")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) must panic")
		}
	}()
	r.Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v", f)
		}
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(11)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestRNGBoolBias(t *testing.T) {
	r := NewRNG(13)
	hits := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.2 || frac > 0.3 {
		t.Errorf("Bool(0.25) frequency %.3f", frac)
	}
}
