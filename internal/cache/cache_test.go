package cache

import (
	"testing"
	"testing/quick"
)

func smallCache() *Cache {
	return New(Config{
		Name: "T", SizeBytes: 1024, Ways: 2, LineBytes: 64, Latency: 5,
	})
}

func TestCacheHitAfterFill(t *testing.T) {
	c := smallCache()
	hit, when := c.Lookup(10, 0x1000, false, true)
	if hit {
		t.Fatal("cold cache must miss")
	}
	c.Fill(0x1000, 50, false, false)
	hit, when = c.Lookup(100, 0x1000, false, true)
	if !hit {
		t.Fatal("must hit after fill")
	}
	if when != 105 {
		t.Errorf("hit ready at %d, want 105 (now + latency)", when)
	}
}

func TestCacheFillDelayRespected(t *testing.T) {
	c := smallCache()
	c.Lookup(0, 0x2000, false, true)
	c.Fill(0x2000, 200, false, false) // data arrives at cycle 200
	_, when := c.Lookup(100, 0x2000, false, true)
	if when != 205 {
		t.Errorf("access before fill-arrival ready at %d, want 205", when)
	}
}

func TestCacheSameLineDifferentOffsets(t *testing.T) {
	c := smallCache()
	c.Lookup(0, 0x1000, false, true)
	c.Fill(0x1000, 0, false, false)
	if hit, _ := c.Lookup(1, 0x103F, false, true); !hit {
		t.Error("same 64B line must hit")
	}
	if hit, _ := c.Lookup(2, 0x1040, false, true); hit {
		t.Error("next line must miss")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := smallCache() // 8 sets, 2 ways
	// Three lines in the same set (stride = sets*line = 512).
	a, b, d := uint64(0x0000), uint64(0x0200), uint64(0x0400)
	for _, addr := range []uint64{a, b} {
		c.Lookup(0, addr, false, true)
		c.Fill(addr, 0, false, false)
	}
	c.Lookup(1, a, false, true) // touch a: b becomes LRU
	c.Lookup(2, d, false, true)
	c.Fill(d, 2, false, false) // evicts b
	if !c.Probe(a) || !c.Probe(d) {
		t.Error("a and d must be resident")
	}
	if c.Probe(b) {
		t.Error("b (LRU) should have been evicted")
	}
}

func TestCacheWritebackCounting(t *testing.T) {
	c := smallCache()
	// Dirty-fill three same-set lines: the third fill evicts a dirty line.
	for i, addr := range []uint64{0x0000, 0x0200, 0x0400} {
		c.Lookup(uint64(i), addr, true, true)
		c.Fill(addr, uint64(i), true, false)
	}
	if c.Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
}

func TestCacheMSHRBackpressure(t *testing.T) {
	c := New(Config{Name: "M", SizeBytes: 1024, Ways: 2, LineBytes: 64, Latency: 1, MSHRs: 1})
	_, start1 := c.Lookup(10, 0x1000, false, true)
	if start1 != 10 {
		t.Fatalf("first miss starts at %d", start1)
	}
	c.Fill(0x1000, 500, false, false) // occupies the only MSHR until 500
	_, start2 := c.Lookup(20, 0x2000, false, true)
	if start2 != 500 {
		t.Errorf("second miss starts at %d, want 500 (MSHR busy)", start2)
	}
	c.Fill(0x2000, 600, false, false)
	// Without the flag a miss neither waits for the MSHR nor frees it.
	if _, start3 := c.Lookup(30, 0x3000, false, false); start3 != 30 {
		t.Errorf("MSHR-free miss starts at %d, want 30", start3)
	}
	c.Fill(0x3000, 40, false, false)
	if _, start4 := c.Lookup(50, 0x4000, false, true); start4 != 600 {
		t.Errorf("miss after an MSHR-free fill starts at %d, want 600 (MSHR still busy)", start4)
	}
	c.Fill(0x4000, 700, false, false)
}

func TestCachePrefetchStats(t *testing.T) {
	c := smallCache()
	c.Fill(0x3000, 0, false, true)
	if c.Stats.PrefetchFills != 1 {
		t.Errorf("prefetch fills = %d", c.Stats.PrefetchFills)
	}
	c.Lookup(1, 0x3000, false, true)
	if c.Stats.PrefetchHits != 1 {
		t.Errorf("prefetch hits = %d", c.Stats.PrefetchHits)
	}
	// Second demand hit no longer counts as a prefetch hit.
	c.Lookup(2, 0x3000, false, true)
	if c.Stats.PrefetchHits != 1 {
		t.Errorf("prefetch hits after demand = %d", c.Stats.PrefetchHits)
	}
}

func TestCacheMissRate(t *testing.T) {
	c := smallCache()
	c.Lookup(0, 0x1000, false, true)
	c.Fill(0x1000, 0, false, false)
	c.Lookup(1, 0x1000, false, true)
	if mr := c.Stats.MissRate(); mr != 0.5 {
		t.Errorf("miss rate = %v, want 0.5", mr)
	}
}

func TestCacheBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two sets must panic")
		}
	}()
	New(Config{Name: "bad", SizeBytes: 960, Ways: 2, LineBytes: 64})
}

// Property: after Fill(addr), Probe(addr) is true until ≥ Ways distinct
// same-set fills occur.
func TestCacheFillThenProbeProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := smallCache()
		for _, a16 := range addrs {
			addr := uint64(a16)
			c.Lookup(0, addr, false, true)
			c.Fill(addr, 0, false, false)
			if !c.Probe(addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStridePrefetcherDetectsStride(t *testing.T) {
	p := NewStridePrefetcher(6, 2)
	var got []uint64
	for i := 0; i < 5; i++ {
		got = p.Observe(0x400, uint64(0x1000+i*64))
	}
	if len(got) != 2 {
		t.Fatalf("prefetches = %v, want 2 addresses", got)
	}
	// Last observed addr 0x1100: next two strides.
	if got[0] != 0x1140 || got[1] != 0x1180 {
		t.Errorf("prefetch addrs = %#x", got)
	}
}

func TestStridePrefetcherIgnoresRandom(t *testing.T) {
	p := NewStridePrefetcher(6, 2)
	addrs := []uint64{0x1000, 0x8f40, 0x2310, 0x99c0, 0x0040, 0x7780}
	for _, a := range addrs {
		if out := p.Observe(0x400, a); len(out) != 0 {
			t.Fatalf("random pattern triggered prefetch %v", out)
		}
	}
}

func TestStridePrefetcherPerPC(t *testing.T) {
	p := NewStridePrefetcher(6, 1)
	// Interleave two PCs (distinct table slots) with different strides;
	// both should train.
	var outA, outB []uint64
	for i := 0; i < 6; i++ {
		// Observe's result aliases internal scratch: copy before the
		// next call.
		outA = append([]uint64(nil), p.Observe(0x400, uint64(0x1000+i*8))...)
		outB = append([]uint64(nil), p.Observe(0x504, uint64(0x9000+i*128))...)
	}
	if len(outA) != 1 || outA[0] != 0x1028+8 {
		t.Errorf("pc A prefetch %#x", outA)
	}
	if len(outB) != 1 || outB[0] != 0x9280+128 {
		t.Errorf("pc B prefetch %#x", outB)
	}
}

func TestStreamPrefetcherAscending(t *testing.T) {
	p := NewStreamPrefetcher(4, 3, 64)
	var out []uint64
	for i := 0; i < 4; i++ {
		out = p.Observe(uint64(0x20000 + i*64))
	}
	if len(out) != 3 {
		t.Fatalf("stream prefetches = %v", out)
	}
	if out[0] != 0x20000+4*64 {
		t.Errorf("first prefetch %#x", out[0])
	}
}

func TestStreamPrefetcherDescending(t *testing.T) {
	p := NewStreamPrefetcher(4, 2, 64)
	var out []uint64
	for i := 10; i >= 6; i-- {
		out = p.Observe(uint64(0x30000 + i*64))
	}
	if len(out) != 2 || out[0] != 0x30000+5*64 {
		t.Fatalf("descending stream prefetches = %#x", out)
	}
}

func TestStreamPrefetcherStaysInPage(t *testing.T) {
	p := NewStreamPrefetcher(4, 8, 64)
	var out []uint64
	// Ascend to the end of a 4 KiB page.
	for i := 60; i < 64; i++ {
		out = p.Observe(uint64(0x40000 + i*64))
	}
	for _, a := range out {
		if a>>12 != 0x40 {
			t.Errorf("prefetch %#x escaped the page", a)
		}
	}
}

func TestStreamPrefetcherRandomNoise(t *testing.T) {
	p := NewStreamPrefetcher(4, 4, 64)
	addrs := []uint64{0x1000, 0x53c0, 0x2180, 0x9a40, 0x0300}
	for _, a := range addrs {
		if out := p.Observe(a); len(out) != 0 {
			t.Fatalf("noise triggered prefetch %v", out)
		}
	}
}
