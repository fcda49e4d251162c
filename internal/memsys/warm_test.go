package memsys_test

import (
	"fmt"
	"reflect"
	"testing"

	"fvp/internal/cache"
	"fvp/internal/dram"
	"fvp/internal/memsys"
	"fvp/internal/ooo"
	"fvp/internal/workload"
)

// refWarm is the per-line reference model of Hierarchy.WarmRanges: every
// line of every range, in order, filled into its level and each level
// behind it with data ready at cycle 0.
func refWarm(h *memsys.Hierarchy, ranges []memsys.WarmRange) {
	line := uint64(h.L1D.Config().LineBytes)
	for _, r := range ranges {
		if r.Level < memsys.LvlL1 || r.Level > memsys.LvlLLC {
			continue
		}
		for a := r.Base &^ (line - 1); a < r.Base+r.Bytes; a += line {
			if r.Level <= memsys.LvlLLC {
				h.LLC.Fill(a, 0, false, false)
			}
			if r.Level <= memsys.LvlL2 {
				h.L2.Fill(a, 0, false, false)
			}
			if r.Level <= memsys.LvlL1 {
				h.L1D.Fill(a, 0, false, false)
			}
		}
	}
}

// epochFields are cache.Cache's lazy-set bookkeeping, the one part of its
// state the bulk-warm comparison leaves out: it records how a set is
// brought current, and a per-line reference has nothing to bring current.
var epochFields = map[string]map[string]bool{
	"cache.Cache": {"epoch": true, "setEpoch": true, "warm": true},
}

// firstDiff returns the path of the first difference between a and b,
// walking every field, exported or not (cache lines, LRU clocks, MSHRs,
// stats, DRAM banks, prefetcher tables), or "" when they are equal. It
// leaves out the fields skip names, by struct type ("cache.Cache") and
// then field name.
func firstDiff(path string, a, b reflect.Value, skip map[string]map[string]bool) string {
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + ": nil vs non-nil"
			}
			return ""
		}
		return firstDiff(path, a.Elem(), b.Elem(), skip)
	case reflect.Struct:
		skipped := skip[a.Type().String()]
		for i := 0; i < a.NumField(); i++ {
			name := a.Type().Field(i).Name
			if skipped[name] {
				continue
			}
			if d := firstDiff(path+"."+name, a.Field(i), b.Field(i), skip); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: len %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := firstDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i), skip); d != "" {
				return d
			}
		}
		return ""
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Uint(), b.Uint())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q vs %q", path, a.String(), b.String())
		}
	default:
		panic("firstDiff: unhandled kind " + a.Kind().String() + " at " + path)
	}
	return ""
}

// bringCurrent probes one line of every set of every cache in h, so each
// stale set is rebuilt and its lines hold what a first touch would find.
func bringCurrent(h *memsys.Hierarchy) {
	for _, c := range []*cache.Cache{h.L1I, h.L1D, h.L2, h.LLC} {
		cfg := c.Config()
		for s := 0; s < cfg.SizeBytes/cfg.LineBytes/cfg.Ways; s++ {
			c.Probe(uint64(s * cfg.LineBytes))
		}
	}
}

// checkWarm warms one fresh hierarchy in bulk and another line by line and
// reports the first state difference once every set is current.
func checkWarm(t *testing.T, cfg memsys.Config, ranges []memsys.WarmRange) {
	t.Helper()
	bulk, ref := memsys.New(cfg), memsys.New(cfg)
	bulk.WarmRanges(ranges)
	refWarm(ref, ranges)
	bringCurrent(bulk)
	if d := firstDiff("Hierarchy", reflect.ValueOf(bulk), reflect.ValueOf(ref), epochFields); d != "" {
		t.Fatalf("bulk warm of %+v differs from the per-line reference at %s", ranges, d)
	}
}

// TestWarmRangesMatchesPerLineFill pins the bulk warm to the per-line
// reference on every workload's steady-state image, on both core configs'
// memory systems.
func TestWarmRangesMatchesPerLineFill(t *testing.T) {
	for _, cfg := range []ooo.Config{ooo.Skylake(), ooo.Skylake2X()} {
		seen := map[string]bool{}
		for _, w := range workload.All() {
			var ranges []memsys.WarmRange
			for _, r := range w.Build().WarmRanges {
				ranges = append(ranges, memsys.WarmRange{Base: r.Base, Bytes: r.Bytes, Level: memsys.Level(r.Level)})
			}
			// Workloads of a family share their image; check each once.
			if key := fmt.Sprint(ranges); !seen[key] {
				seen[key] = true
				t.Run(cfg.Name+"/"+w.Name, func(t *testing.T) { checkWarm(t, cfg.Mem, ranges) })
			}
		}
	}
}

// smallConfig is a hierarchy small enough that ranges several times the
// LLC's capacity stay cheap: L1D 8 sets × 2 ways, L2 16×4, LLC 32×4.
func smallConfig() memsys.Config {
	return memsys.Config{
		L1I:             cache.Config{Name: "L1I", SizeBytes: 1 << 10, Ways: 2, LineBytes: 64},
		L1D:             cache.Config{Name: "L1D", SizeBytes: 1 << 10, Ways: 2, LineBytes: 64, Latency: 5, MSHRs: 2},
		L2:              cache.Config{Name: "L2", SizeBytes: 4 << 10, Ways: 4, LineBytes: 64, Latency: 15, MSHRs: 4},
		LLC:             cache.Config{Name: "LLC", SizeBytes: 8 << 10, Ways: 4, LineBytes: 64, Latency: 40},
		Dram:            dram.DDR4_2133(),
		MemReturnCycles: 20,
	}
}

func TestWarmRangesEdgeCases(t *testing.T) {
	const llc = 8 << 10
	cases := map[string][]memsys.WarmRange{
		"unaligned base":     {{Base: 0x10010, Bytes: 200, Level: memsys.LvlL1}},
		"sub-line":           {{Base: 0x20008, Bytes: 16, Level: memsys.LvlL2}},
		"zero length":        {{Base: 0x30000, Bytes: 0, Level: memsys.LvlL1}, {Base: 0x30010, Bytes: 0, Level: memsys.LvlL1}},
		"duplicated":         {{Base: 0x40000, Bytes: 3 * llc, Level: memsys.LvlL1}, {Base: 0x40000, Bytes: 3 * llc, Level: memsys.LvlL1}},
		"nested":             {{Base: 0x50000, Bytes: 2 * llc, Level: memsys.LvlLLC}, {Base: 0x50400, Bytes: 1000, Level: memsys.LvlL1}},
		"same line":          {{Base: 0x60000, Bytes: 8, Level: memsys.LvlL2}, {Base: 0x60020, Bytes: 8, Level: memsys.LvlL1}},
		"3x capacity":        {{Base: 0x70000, Bytes: 3*llc + 64, Level: memsys.LvlL1}},
		"uneven skip":        {{Base: 0xb0040, Bytes: 2*llc + 5*llc/4 + 300, Level: memsys.LvlL1}},
		"5x capacity nested": {{Base: 0x80000, Bytes: llc / 2, Level: memsys.LvlL1}, {Base: 0x7f000, Bytes: 5 * llc, Level: memsys.LvlL2}},
		"tail overlap":       {{Base: 0x90000, Bytes: 4 * llc, Level: memsys.LvlL2}, {Base: 0x90000 + 4*llc - 200, Bytes: 4 * llc, Level: memsys.LvlL1}},
		"covering overlap":   {{Base: 0xc0, Bytes: 816, Level: memsys.LvlL1}, {Base: 0x80, Bytes: 12336, Level: memsys.LvlL1}},
		"levels ignored":     {{Base: 0xa0000, Bytes: 4096, Level: memsys.LvlMem}, {Base: 0xa0000, Bytes: 4096, Level: -1}},
		// The per-set replay: a range that starts mid-way through the
		// LLC's 32 sets and wraps past set 0 into sets an earlier range
		// filled, a range shorter than every level's set count, and a
		// range that re-fills lines an earlier one left, with and without
		// lines skipped once it has filled a set's every way.
		"wrap past set 0":          {{Base: 0xd0000, Bytes: 50 * 64, Level: memsys.LvlLLC}, {Base: 0xe0000 + 20*64, Bytes: 40 * 64, Level: memsys.LvlLLC}},
		"shorter than set":         {{Base: 0xf0000 + 5*64 + 8, Bytes: 4*64 + 10, Level: memsys.LvlL1}},
		"tail after hits":          {{Base: 0x110000, Bytes: 40 * 64, Level: memsys.LvlLLC}, {Base: 0x110000 + 30*64, Bytes: 300 * 64, Level: memsys.LvlLLC}},
		"tail after hits, no skip": {{Base: 0x120000, Bytes: 40 * 64, Level: memsys.LvlL2}, {Base: 0x120000 + 30*64, Bytes: 60 * 64, Level: memsys.LvlL2}},
	}
	var all []memsys.WarmRange
	for name, ranges := range cases {
		t.Run(name, func(t *testing.T) { checkWarm(t, smallConfig(), ranges) })
		all = append(all, ranges...)
	}
	t.Run("all", func(t *testing.T) { checkWarm(t, smallConfig(), all) })
}

// FuzzWarmRanges checks the bulk warm against the per-line reference on up
// to 6 random ranges. Each range takes 5 input bytes: a 16-bit base in
// 4-byte units (so bases are unaligned and ranges often overlap), a 16-bit
// length in bytes (up to 8× the LLC) and a level, memory included. The
// seed corpus is in testdata/fuzz/FuzzWarmRanges.
func FuzzWarmRanges(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var ranges []memsys.WarmRange
		for len(data) >= 5 && len(ranges) < 6 {
			ranges = append(ranges, memsys.WarmRange{
				Base:  (uint64(data[0]) | uint64(data[1])<<8) << 2,
				Bytes: uint64(data[2]) | uint64(data[3])<<8,
				Level: memsys.Level(data[4] % 4),
			})
			data = data[5:]
		}
		checkWarm(t, smallConfig(), ranges)
	})
}
