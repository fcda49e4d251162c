package harness

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"fvp/internal/isa"
	"fvp/internal/ooo"
	"fvp/internal/prog"
	"fvp/internal/workload"
)

// resetScanMemo empties the scan memo, so the next run of every plan
// scans afresh.
func resetScanMemo() {
	m := &scanMemo
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries = make(map[scanKey]*scanEntry)
	m.lru.Init()
	m.bytes = 0
}

// scanMemoState reports how many scans the memo has run and the page
// bytes it retains.
func scanMemoState() (scans int, bytes int64) {
	m := &scanMemo
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.scans, m.bytes
}

// memoPlans are the two memoized plan shapes: a small sampled plan and a
// three-region plan.
var memoPlans = []struct {
	name string
	opt  Options
}{
	{"sampled", Options{WarmupInsts: 2_000, MeasureInsts: 40_000,
		Sampling: Sampling{Units: 4, UnitInsts: 500, WarmupInsts: 1_000, Seed: 1}}},
	{"regions", Options{WarmupInsts: 2_000, MeasureInsts: 6_000, Regions: 3}},
}

// A run served from the memo equals the same run made on an empty memo,
// FFInsts included, on every golden-matrix workload.
func TestScanMemoMatchesFresh(t *testing.T) {
	for _, name := range workload.GoldenMatrix() {
		w, _ := workload.ByName(name)
		for _, pl := range memoPlans {
			resetScanMemo()
			scans, _ := scanMemoState()
			fresh := runOne(t, w, ooo.Skylake(), Factory(SpecFVP), pl.opt)
			served := runOne(t, w, ooo.Skylake(), Factory(SpecFVP), pl.opt)
			if got, _ := scanMemoState(); got != scans+1 {
				t.Errorf("%s %s: two runs scanned %d times, want 1", name, pl.name, got-scans)
			}
			if fresh.FFInsts == 0 {
				t.Errorf("%s %s: no scan instructions counted", name, pl.name)
			}
			if !reflect.DeepEqual(stripWallClock(served), stripWallClock(fresh)) {
				t.Errorf("%s %s: memoized run differs from a fresh one:\n got: %+v\nwant: %+v", name, pl.name, served, fresh)
			}
		}
	}
}

// Concurrent runs of one plan wait for a single scan and agree.
func TestScanMemoSingleFlight(t *testing.T) {
	w, _ := workload.ByName("gcc")
	opt := memoPlans[0].opt
	opt.RegionWorkers = 1
	resetScanMemo()
	scans, _ := scanMemoState()

	out := make([]Result, 4)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			r, err := RunOneCtx(context.Background(), w, ooo.Skylake(), Factory(SpecFVP), opt)
			if err != nil {
				t.Error(err)
			}
			out[i] = stripWallClock(r)
		}()
	}
	close(start)
	wg.Wait()
	if got, _ := scanMemoState(); got != scans+1 {
		t.Errorf("4 concurrent runs scanned %d times, want 1", got-scans)
	}
	for i := 1; i < len(out); i++ {
		if !reflect.DeepEqual(out[i], out[0]) {
			t.Errorf("run %d differs from run 0:\n got: %+v\nwant: %+v", i, out[i], out[0])
		}
	}
}

// Past its cap the memo evicts the least recently used plan, retains no
// more page bytes than the cap, and an evicted plan rescans to the same
// result.
func TestScanMemoBounded(t *testing.T) {
	defer func(c int64) { scanMemoCap = c; resetScanMemo() }(scanMemoCap)
	w, _ := workload.ByName("omnetpp")
	plan := func(seed uint64) Options {
		opt := memoPlans[0].opt
		opt.Sampling.Seed = seed
		return opt
	}
	run := func(seed uint64) Result {
		return stripWallClock(runOne(t, w, ooo.Skylake(), Factory(SpecFVP), plan(seed)))
	}
	// Each plan's retained bytes, measured alone.
	var size [3]int64
	var want [3]Result
	for i := range size {
		resetScanMemo()
		want[i] = run(uint64(i + 1))
		_, size[i] = scanMemoState()
		if size[i] == 0 {
			t.Fatalf("plan %d retains no pages", i)
		}
	}

	resetScanMemo()
	scanMemoCap = size[0] + max(size[1], size[2])
	check := func(step string, seed uint64, newScans int) {
		t.Helper()
		before, _ := scanMemoState()
		if got := run(seed); !reflect.DeepEqual(got, want[seed-1]) {
			t.Errorf("%s: plan %d differs from its first run", step, seed)
		}
		scans, bytes := scanMemoState()
		if scans-before != newScans {
			t.Errorf("%s: plan %d scanned %d times, want %d", step, seed, scans-before, newScans)
		}
		if bytes > scanMemoCap {
			t.Errorf("%s: memo retains %d bytes, cap %d", step, bytes, scanMemoCap)
		}
	}
	check("fill", 1, 1)
	check("fill", 2, 1)
	check("touch", 1, 0) // plan 2 is now the least recently used
	check("evict", 3, 1) // evicts plan 2, keeps plan 1
	check("kept", 1, 0)
	check("rescan", 2, 1)

	// A plan larger than the cap is used but not retained.
	resetScanMemo()
	scanMemoCap = size[0] - 1
	check("oversize", 1, 1)
	check("oversize again", 1, 1)
	if _, bytes := scanMemoState(); bytes != 0 {
		t.Errorf("oversize plan retained %d bytes", bytes)
	}
}

// FuzzScanMemo holds memoized checkpoints to the stream of a fresh
// executor: at each of a run of ascending positions on a golden
// workload, both a first and a repeat lookup restore the DynInst stream
// that NewExec plus Run produce from that position.
func FuzzScanMemo(f *testing.F) {
	f.Add(uint8(0), []byte{1, 0, 7, 255})
	f.Add(uint8(3), []byte{0, 0, 40})
	f.Add(uint8(12), []byte{200, 3, 3, 3, 3, 90})
	golden := workload.GoldenMatrix()
	f.Fuzz(func(t *testing.T, wl uint8, gaps []byte) {
		if len(gaps) == 0 || len(gaps) > 8 {
			return
		}
		w, _ := workload.ByName(golden[int(wl)%len(golden)])
		p := w.Build()
		at := make([]uint64, len(gaps))
		var pos uint64
		for i, g := range gaps {
			pos += uint64(g) * 97
			at[i] = pos
		}
		const window = 64
		stream := func(ex *prog.Exec) []isa.DynInst {
			var out []isa.DynInst
			ex.Run(window, func(d *isa.DynInst) { out = append(out, *d) })
			return out
		}
		for round := 0; round < 2; round++ {
			cps, _, err := checkpointsAt(context.Background(), w.Name, p, at)
			if err != nil {
				t.Fatal(err)
			}
			for i, a := range at {
				if cps[i].Seq() != a {
					t.Fatalf("round %d: checkpoint %d at %d, want %d", round, i, cps[i].Seq(), a)
				}
				ref := prog.NewExec(w.Build())
				ref.Run(a, nil)
				if got, want := stream(cps[i].Restore()), stream(ref); !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: checkpoint %d at %d restores a different stream", round, i, a)
				}
			}
		}
	})
}
