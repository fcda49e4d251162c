package cache

import (
	"fmt"
	"slices"
	"testing"
)

// refWarm is the per-line reference for WarmFill: every line of every
// span, in order, filled clean with data ready at cycle 0.
func refWarm(c *Cache, spans []Span) {
	line := uint64(c.cfg.LineBytes)
	for _, sp := range spans {
		for a := sp.Base &^ (line - 1); a < sp.Base+sp.Bytes; a += line {
			c.Fill(a, 0, false, false)
		}
	}
}

// stateDiff brings every set of a and b current and names the first part
// of their simulated state that differs, or returns "" when none does. The
// epoch bookkeeping (epoch, setEpoch, warm) is left out: it records how a
// set is brought current, not what it holds.
func stateDiff(a, b *Cache) string {
	for s := uint64(0); s <= a.setMask; s++ {
		a.set(s)
		b.set(s)
	}
	for i := range a.lines {
		if a.lines[i] != b.lines[i] {
			return fmt.Sprintf("set %d way %d: %+v vs %+v", i/a.cfg.Ways, i%a.cfg.Ways, a.lines[i], b.lines[i])
		}
	}
	switch {
	case a.tick != b.tick:
		return fmt.Sprintf("tick: %d vs %d", a.tick, b.tick)
	case !slices.Equal(a.mshrFree, b.mshrFree):
		return fmt.Sprintf("mshrFree: %v vs %v", a.mshrFree, b.mshrFree)
	case a.pendingMSHR != b.pendingMSHR:
		return fmt.Sprintf("pendingMSHR: %d vs %d", a.pendingMSHR, b.pendingMSHR)
	case a.Stats != b.Stats:
		return fmt.Sprintf("Stats: %+v vs %+v", a.Stats, b.Stats)
	}
	return ""
}

// FuzzCacheReuse drives one cache through up to 4 rounds of Reset,
// WarmFill and random accesses, against a fresh cache per round warmed by
// the per-line Fill loop, and demands the same result from every call and
// the same state at the end of each round. The cache has 8 sets of 4 ways.
//
// A round starts with a header byte: bits 0–1 count Probes to make before
// the warm (one address byte each), bit 2 asks for a WarmFill, and bits
// 3–4 plus one count its spans (4 bytes each: a 13-bit base in bytes, so
// bases are unaligned and spans overlap, and a 16-bit length, up to 32×
// the cache). Then come 3-byte accesses until one whose first byte is 0
// ends the round: a kind (Probe, Lookup with and without an MSHR, or
// Fill), an address byte (a 32-byte granule in the same 8 KB as the
// spans), and a byte giving the cycle, the write and prefetch flags and
// the fill delay. The seed corpus is in testdata/fuzz/FuzzCacheReuse.
func FuzzCacheReuse(f *testing.F) {
	cfg := Config{Name: "F", SizeBytes: 2 << 10, Ways: 4, LineBytes: 64, Latency: 3, MSHRs: 2}
	f.Fuzz(func(t *testing.T, data []byte) {
		got := New(cfg)
		for round := 0; round < 4 && len(data) > 0; round++ {
			if round > 0 {
				got.Reset()
			}
			ref := New(cfg)
			h := data[0]
			data = data[1:]
			for i := 0; i < int(h&3) && len(data) > 0; i++ {
				a := uint64(data[0]) << 5
				data = data[1:]
				if g, w := got.Probe(a), ref.Probe(a); g != w {
					t.Fatalf("round %d: pre-warm Probe(%#x) = %v, want %v", round, a, g, w)
				}
			}
			if h&4 != 0 {
				var spans []Span
				for len(spans) < int(h>>3&3)+1 && len(data) >= 4 {
					spans = append(spans, Span{
						Base:  (uint64(data[0]) | uint64(data[1])<<8) % (8 << 10),
						Bytes: uint64(data[2]) | uint64(data[3])<<8,
					})
					data = data[4:]
				}
				got.WarmFill(spans)
				refWarm(ref, spans)
			}
			for len(data) >= 3 {
				kind, a, x := data[0], uint64(data[1])<<5, data[2]
				data = data[3:]
				if kind == 0 {
					break
				}
				now, write, prefetched := uint64(x), x&1 != 0, x&2 != 0
				ready := now + uint64(x>>2)
				switch kind % 4 {
				case 0:
					if g, w := got.Probe(a), ref.Probe(a); g != w {
						t.Fatalf("round %d: Probe(%#x) = %v, want %v", round, a, g, w)
					}
				case 1, 2:
					mshr := kind%4 == 1
					gh, gw := got.Lookup(now, a, write, mshr)
					wh, ww := ref.Lookup(now, a, write, mshr)
					if gh != wh || gw != ww {
						t.Fatalf("round %d: Lookup(%d, %#x, %v, %v) = %v, %d, want %v, %d",
							round, now, a, write, mshr, gh, gw, wh, ww)
					}
					if !gh {
						got.Fill(a, ready, write, false)
						ref.Fill(a, ready, write, false)
					}
				case 3:
					got.Fill(a, ready, write, prefetched)
					ref.Fill(a, ready, write, prefetched)
				}
			}
			if d := stateDiff(got, ref); d != "" {
				t.Fatalf("round %d: reused cache differs from a fresh one at %s", round, d)
			}
		}
	})
}
