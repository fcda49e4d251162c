package memsys

import (
	"testing"

	"fvp/internal/cache"
	"fvp/internal/dram"
)

func testConfig() Config {
	return Config{
		L1I:             cache.Config{Name: "L1I", SizeBytes: 4 << 10, Ways: 2, LineBytes: 64, Latency: 0},
		L1D:             cache.Config{Name: "L1D", SizeBytes: 4 << 10, Ways: 2, LineBytes: 64, Latency: 5},
		L2:              cache.Config{Name: "L2", SizeBytes: 32 << 10, Ways: 4, LineBytes: 64, Latency: 15},
		LLC:             cache.Config{Name: "LLC", SizeBytes: 256 << 10, Ways: 8, LineBytes: 64, Latency: 40},
		Dram:            dram.DDR4_2133(),
		MemReturnCycles: 20,
	}
}

func TestLevelString(t *testing.T) {
	names := map[Level]string{LvlL1: "L1", LvlL2: "L2", LvlLLC: "LLC", LvlMem: "MEM", Level(9): "?"}
	for l, want := range names {
		if l.String() != want {
			t.Errorf("%d.String() = %q", l, l.String())
		}
	}
}

func TestLoadMissPathAndRefill(t *testing.T) {
	h := New(testConfig())
	done, lvl := h.Load(0, 0x10000, 0x400, true)
	if lvl != LvlMem {
		t.Fatalf("cold load served by %v", lvl)
	}
	if done < 60 {
		t.Errorf("memory load done at %d, implausibly fast", done)
	}
	// Second access to the same line: L1 hit at hit latency.
	done2, lvl2 := h.Load(done, 0x10000, 0x400, true)
	if lvl2 != LvlL1 {
		t.Errorf("refilled line served by %v", lvl2)
	}
	if done2 != done+5 {
		t.Errorf("L1 hit done at %d, want %d", done2, done+5)
	}
}

func TestLoadLevels(t *testing.T) {
	h := New(testConfig())
	h.WarmRanges([]WarmRange{
		{Base: 0x20000, Bytes: 64, Level: LvlLLC},
		{Base: 0x30000, Bytes: 64, Level: LvlL2},
		{Base: 0x40040, Bytes: 64, Level: LvlL1}, // own L1D set: the loads above refill set 0
	})
	if _, lvl := h.Load(0, 0x20000, 0x400, true); lvl != LvlLLC {
		t.Errorf("LLC-warmed line served by %v", lvl)
	}
	if _, lvl := h.Load(0, 0x30000, 0x400, true); lvl != LvlL2 {
		t.Errorf("L2-warmed line served by %v", lvl)
	}
	if _, lvl := h.Load(0, 0x40040, 0x400, true); lvl != LvlL1 {
		t.Errorf("L1-warmed line served by %v", lvl)
	}
}

func TestProbeLevel(t *testing.T) {
	h := New(testConfig())
	if l := h.ProbeLevel(0x50000); l != LvlMem {
		t.Errorf("uncached line probes as %v", l)
	}
	h.WarmRanges([]WarmRange{{Base: 0x50000, Bytes: 64, Level: LvlL2}})
	if l := h.ProbeLevel(0x50000); l != LvlL2 {
		t.Errorf("warmed line probes as %v", l)
	}
	// Probing must not change state.
	if l := h.ProbeLevel(0x60000); l != LvlMem {
		t.Errorf("probe = %v", l)
	}
	if h.L1D.Stats.Accesses != 0 {
		t.Error("ProbeLevel must not count as a demand access")
	}
}

func TestWarmLevelsAreInclusive(t *testing.T) {
	h := New(testConfig())
	h.WarmRanges([]WarmRange{
		{Base: 0x70000, Bytes: 64, Level: LvlL1},
		{Base: 0x80000, Bytes: 64, Level: LvlLLC},
		{Base: 0x90000, Bytes: 64, Level: LvlMem},
	})
	if !h.L1D.Probe(0x70000) || !h.L2.Probe(0x70000) || !h.LLC.Probe(0x70000) {
		t.Error("L1 warm must also fill L2 and LLC")
	}
	if h.L1D.Probe(0x80000) || h.L2.Probe(0x80000) || !h.LLC.Probe(0x80000) {
		t.Error("LLC warm must fill the LLC only")
	}
	if h.ProbeLevel(0x90000) != LvlMem {
		t.Error("a range at the memory level must not be cached")
	}
}

func TestWarmTouchedHierarchyPanics(t *testing.T) {
	for _, touch := range []func(h *Hierarchy){
		func(h *Hierarchy) { h.Load(0, 0x1000, 0x400, true) },
		func(h *Hierarchy) { h.WarmRanges([]WarmRange{{Base: 0x1000, Bytes: 64, Level: LvlLLC}}) },
		func(h *Hierarchy) { h.L2.Fill(0x1000, 0, false, false) },
	} {
		h := New(testConfig())
		touch(h)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("warming a touched hierarchy must panic")
				}
			}()
			h.WarmRanges(nil)
		}()
		h.Reset()
		h.WarmRanges([]WarmRange{{Base: 0x1000, Bytes: 64, Level: LvlL1}})
		if h.ProbeLevel(0x1000) != LvlL1 {
			t.Error("warming after Reset must work")
		}
	}
}

func TestStoreWriteAllocates(t *testing.T) {
	h := New(testConfig())
	h.Store(0, 0x90000, true)
	if !h.L1D.Probe(0x90000) {
		t.Error("store must write-allocate into L1D")
	}
	if h.L1D.Stats.Writebacks != 0 {
		t.Error("no writeback expected yet")
	}
}

func TestFetchPath(t *testing.T) {
	h := New(testConfig())
	done, lvl := h.Fetch(0, 0x400000, true)
	if lvl != LvlMem || done == 0 {
		t.Errorf("cold fetch: %d, %v", done, lvl)
	}
	done2, lvl2 := h.Fetch(done, 0x400000, true)
	if lvl2 != LvlL1 || done2 != done {
		t.Errorf("warm fetch: %d (want %d), %v", done2, done, lvl2)
	}
}

func TestStridePrefetcherHidesLatency(t *testing.T) {
	cfg := testConfig()
	cfg.StridePCBits = 6
	cfg.StrideDegree = 4
	h := New(cfg)
	// March with a fixed stride from one PC; after training, accesses
	// should start hitting prefetched lines.
	pfHits := 0
	now := uint64(0)
	for i := 0; i < 64; i++ {
		addr := uint64(0x100000 + i*64)
		done, lvl := h.Load(now, addr, 0x888, true)
		if lvl == LvlL1 && i > 8 {
			pfHits++
		}
		now = done
	}
	if pfHits == 0 {
		t.Error("stride prefetcher never converted misses into L1 hits")
	}
	if h.L1D.Stats.PrefetchFills == 0 {
		t.Error("no prefetch fills recorded")
	}
}

func TestStreamPrefetcherFillsL2(t *testing.T) {
	cfg := testConfig()
	cfg.Streams = 4
	cfg.StreamDepth = 4
	h := New(cfg)
	now := uint64(0)
	served := map[Level]int{}
	for i := 0; i < 32; i++ {
		addr := uint64(0x200000 + i*64)
		done, lvl := h.Load(now, addr, uint64(0x900+i*4), true) // varying PC: no stride pf
		served[lvl]++
		now = done
	}
	if h.L2.Stats.PrefetchFills == 0 {
		t.Error("stream prefetcher filled nothing into L2")
	}
	if served[LvlMem] >= 30 {
		t.Errorf("stream prefetching did not reduce memory trips: %v", served)
	}
}

func TestDemandLoadCounters(t *testing.T) {
	h := New(testConfig())
	h.Load(0, 0xA0000, 0x400, true)
	h.Load(500, 0xA0000, 0x400, true)
	if h.DemandLoads[LvlMem] != 1 || h.DemandLoads[LvlL1] != 1 {
		t.Errorf("demand loads = %v", h.DemandLoads)
	}
}
