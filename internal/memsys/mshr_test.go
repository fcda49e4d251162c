package memsys_test

import (
	"reflect"
	"testing"

	"fvp/internal/isa"
	"fvp/internal/memsys"
	"fvp/internal/ooo"
	"fvp/internal/prog"
	"fvp/internal/workload"
)

// timingFields are the hierarchy state only timing writes: when a line's
// data arrives, the MSHRs, when a DRAM bank is free and when its open row
// was activated, and the DRAM latency sum.
var timingFields = map[string]map[string]bool{
	"cache.line":      {"readyAt": true},
	"cache.Cache":     {"mshrFree": true, "pendingMSHR": true},
	"dram.bank":       {"readyAt": true, "actAt": true},
	"dram.Controller": {"TotalLatency": true},
}

// TestMSHRFlagOnlyChangesTiming drives two hierarchies with the same
// Load/Store/Fetch stream from each golden-matrix workload, one with
// misses reserving MSHRs, as the pipeline walks, and one without, as
// functional warmup walks. Only timingFields may differ: tags, valid,
// dirty and prefetch bits, LRU clocks, cache and DRAM stats, open rows and
// prefetcher tables must match, which is what lets functional warming
// train the state the pipeline's walk would.
func TestMSHRFlagOnlyChangesTiming(t *testing.T) {
	insts := uint64(200_000)
	if testing.Short() {
		insts = 20_000
	}
	cfg := ooo.Skylake().Mem
	for _, name := range workload.GoldenMatrix() {
		t.Run(name, func(t *testing.T) {
			w, _ := workload.ByName(name)
			p := w.Build()
			var ranges []memsys.WarmRange
			for _, r := range p.WarmRanges {
				ranges = append(ranges, memsys.WarmRange{Base: r.Base, Bytes: r.Bytes, Level: memsys.Level(r.Level)})
			}
			// One instruction a cycle; the I-cache is walked once per
			// new fetch line, as both the pipeline and the warmer do.
			drive := func(mshr bool) reflect.Value {
				h := memsys.New(cfg)
				h.WarmRanges(ranges)
				ex := prog.NewExec(p)
				var d isa.DynInst
				line := ^uint64(0)
				for now := uint64(0); now < insts && ex.Next(&d); now++ {
					if d.PC>>6 != line {
						line = d.PC >> 6
						h.Fetch(now, d.PC, mshr)
					}
					switch {
					case d.Op.IsLoad():
						h.Load(now, d.Addr, d.PC, mshr)
					case d.Op.IsStore():
						h.Store(now, d.Addr, mshr)
					}
				}
				return reflect.ValueOf(h)
			}
			timed, untimed := drive(true), drive(false)
			if d := firstDiff("Hierarchy", timed, untimed, timingFields); d != "" {
				t.Fatalf("the MSHR flag changed more than timing, at %s", d)
			}
			if firstDiff("Hierarchy", timed, untimed, nil) == "" {
				t.Fatal("the MSHR flag changed nothing, so the comparison shows nothing")
			}
		})
	}
}
