package workload

import (
	"reflect"
	"testing"

	"fvp/internal/isa"
	"fvp/internal/prog"
)

func TestAllSixtyWorkloadsBuild(t *testing.T) {
	ws := All()
	if len(ws) != 60 {
		t.Fatalf("study list has %d workloads, want 60", len(ws))
	}
	if err := Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCategoryCounts(t *testing.T) {
	want := map[Category]int{ISPEC06: 12, FSPEC06: 16, SPEC17: 16, Server: 16}
	for cat, n := range want {
		if got := len(ByCategory(cat)); got != n {
			t.Errorf("%s has %d workloads, want %d", cat, got, n)
		}
	}
}

func TestNamesUniqueAndResolvable(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range All() {
		if seen[w.Name] {
			t.Errorf("duplicate workload name %q", w.Name)
		}
		seen[w.Name] = true
		if _, ok := ByName(w.Name); !ok {
			t.Errorf("ByName(%q) failed", w.Name)
		}
	}
	if _, ok := ByName("no-such-workload"); ok {
		t.Error("ByName must fail for unknown names")
	}
	if len(Names()) != 60 {
		t.Errorf("Names() returned %d entries", len(Names()))
	}
}

// TestByNameUsesTable checks that ByName allocates nothing and returns, for
// every name, the entry All lists: same name, category and program.
func TestByNameUsesTable(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { ByName("mcf-17") }); n != 0 {
		t.Errorf("ByName allocates %.0f times per call, want 0", n)
	}
	for _, want := range All() {
		got, ok := ByName(want.Name)
		if !ok || got.Name != want.Name || got.Category != want.Category {
			t.Fatalf("ByName(%q) = %q/%s, %v; All lists %q/%s", want.Name, got.Name, got.Category, ok, want.Name, want.Category)
		}
		gp, wp := got.Build(), want.Build()
		if !reflect.DeepEqual(gp.Code, wp.Code) || !reflect.DeepEqual(gp.WarmRanges, wp.WarmRanges) {
			t.Errorf("ByName(%q) builds a different program than All's entry", want.Name)
		}
	}
}

func TestWorkloadsDeterministic(t *testing.T) {
	w, _ := ByName("omnetpp")
	a, b := prog.NewExec(w.Build()), prog.NewExec(w.Build())
	var da, db isa.DynInst
	for i := 0; i < 5000; i++ {
		if !a.Next(&da) || !b.Next(&db) {
			t.Fatal("unexpected halt")
		}
		if da != db {
			t.Fatalf("divergence at %d: %v vs %v", i, da.String(), db.String())
		}
	}
}

// mixOf executes n instructions and returns per-op counts.
func mixOf(t *testing.T, name string, n int) map[isa.Op]int {
	t.Helper()
	w, ok := ByName(name)
	if !ok {
		t.Fatalf("unknown workload %s", name)
	}
	ex := prog.NewExec(w.Build())
	mix := map[isa.Op]int{}
	var d isa.DynInst
	for i := 0; i < n; i++ {
		if !ex.Next(&d) {
			t.Fatalf("%s halted after %d instructions", name, i)
		}
		mix[d.Op]++
	}
	return mix
}

func TestEveryWorkloadHasLoadsAndBranches(t *testing.T) {
	for _, w := range All() {
		mix := mixOf(t, w.Name, 3000)
		if mix[isa.OpLoad] == 0 {
			t.Errorf("%s executes no loads", w.Name)
		}
		branches := 0
		for op, n := range mix {
			if op.IsBranch() {
				branches += n
			}
		}
		if branches == 0 {
			t.Errorf("%s executes no branches", w.Name)
		}
	}
}

func TestServerWorkloadsUseCallsAndStores(t *testing.T) {
	for _, w := range ByCategory(Server) {
		if w.Name == "hplinpack" {
			continue // the one streaming kernel in the category
		}
		mix := mixOf(t, w.Name, 6000)
		if mix[isa.OpCall] == 0 || mix[isa.OpRet] == 0 {
			t.Errorf("%s: server kernels dispatch through calls (call=%d ret=%d)",
				w.Name, mix[isa.OpCall], mix[isa.OpRet])
		}
		if mix[isa.OpStore] == 0 {
			t.Errorf("%s: server kernels spill to the stack", w.Name)
		}
	}
}

func TestBranchyWorkloadsBranchALot(t *testing.T) {
	leela := mixOf(t, "leela", 5000)
	stream := mixOf(t, "libquantum", 5000)
	frac := func(m map[isa.Op]int) float64 {
		total, br := 0, 0
		for op, n := range m {
			total += n
			if op.IsCondBranch() {
				br += n
			}
		}
		return float64(br) / float64(total)
	}
	if frac(leela) < 2*frac(stream) {
		t.Errorf("leela branch fraction %.3f not ≫ libquantum %.3f",
			frac(leela), frac(stream))
	}
}

func TestFSPECUsesFP(t *testing.T) {
	for _, name := range []string{"wrf", "cactusADM", "milc"} {
		mix := mixOf(t, name, 4000)
		if mix[isa.OpFP] == 0 {
			t.Errorf("%s executes no FP ops", name)
		}
	}
}

func TestColdFootprintsAreCold(t *testing.T) {
	// mcf's chase must touch a wide address range.
	w, _ := ByName("mcf")
	ex := prog.NewExec(w.Build())
	var d isa.DynInst
	lo, hi := ^uint64(0), uint64(0)
	for i := 0; i < 60000; i++ {
		ex.Next(&d)
		if d.Op.IsLoad() && d.Addr >= coldBase {
			if d.Addr < lo {
				lo = d.Addr
			}
			if d.Addr > hi {
				hi = d.Addr
			}
		}
	}
	if hi-lo < 16<<20 {
		t.Errorf("mcf chase spans only %d MB", (hi-lo)>>20)
	}
}

func TestWarmPtrTablesUniform(t *testing.T) {
	w, _ := ByName("omnetpp") // WarmPtr2 kernel
	p := w.Build()
	m := p.BuildMemory()
	// Level-2 half of the warm table must hold the cold mask everywhere.
	warm := uint64(2 << 20)
	coldMask := uint64(32<<20 - 1)
	for _, off := range []uint64{warm / 2, warm/2 + 8192, warm - 8} {
		if got := m.Read(warmBase + off); got != coldMask {
			t.Errorf("warm[%#x] = %#x, want cold mask %#x", off, got, coldMask)
		}
	}
}

func TestWarmRangesPresent(t *testing.T) {
	for _, name := range []string{"omnetpp", "cassandra", "wrf"} {
		w, _ := ByName(name)
		if len(w.Build().WarmRanges) == 0 {
			t.Errorf("%s has no warm ranges", name)
		}
	}
}

// refHash is the address hash finish's background returns outside the
// warm table.
func refHash(seed uint64) func(uint64) uint64 {
	return func(addr uint64) uint64 {
		x := addr ^ seed ^ 0x517C_C1B7_2722_0A95
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
		return x
	}
}

// refImage is the reference model of a kernel's initial memory image: the
// address hash as background, InitMem written, then the uniform warm
// tables written word by word, as finish's table writer did before the
// tables moved into the background function.
func refImage(p *prog.Program, kp Params) *prog.Memory {
	m := prog.NewMemory()
	m.SetBackground(refHash(kp.Seed))
	for a, v := range p.InitMem {
		m.Write(a&^7, v)
	}
	cold, warm := kp.ColdBytes, kp.WarmBytes
	if cold == 0 {
		cold = 32 << 20
	}
	if warm == 0 {
		warm = 2 << 20
	}
	fill := func(base, bytes, v uint64) {
		for a := base; a < base+bytes; a += 8 {
			m.Write(a, v)
		}
	}
	switch {
	case kp.WarmPtr2:
		half := warm / 2
		fill(warmBase, half, half-1)
		fill(warmBase+half, warm-half, cold-1)
	case kp.WarmPtr:
		fill(warmBase, warm, cold-1)
	}
	return m
}

// TestMemoryImageMatchesTableWriter holds every workload's BuildMemory to
// refImage: the same word at every address of the warm region, next to
// it, at every InitMem address and at a fixed sample elsewhere, also
// after a store into the table materializes a page. The image itself
// holds only the pages InitMem writes, so no table is materialized.
func TestMemoryImageMatchesTableWriter(t *testing.T) {
	rng := prog.NewRNG(28)
	sample := []uint64{0, cfgBase, frameBase, streamA, streamB, streamOut, coldBase, coldBase + 32<<20 - 8}
	for i := 0; i < 4096; i++ {
		sample = append(sample, rng.Uint64()&(1<<32-8))
	}
	tables := 0
	for i, w := range All() {
		kp := defs[i].p
		p := w.Build()
		got, want := p.BuildMemory(), refImage(p, kp)
		warm := kp.WarmBytes
		if warm == 0 {
			warm = 2 << 20
		}
		if kp.WarmPtr || kp.WarmPtr2 {
			tables++
		}
		check := func(what string, a uint64) {
			if g, r := got.Read(a), want.Read(a); g != r {
				t.Fatalf("%s: %s word %#x reads %#x, reference %#x", w.Name, what, a, g, r)
			}
		}
		for a := uint64(warmBase); a < warmBase+warm; a += 8 {
			check("warm-region", a)
		}
		check("below-table", warmBase-8)
		check("above-table", warmBase+warm)
		pages := map[uint64]bool{}
		for a := range p.InitMem {
			check("InitMem", a)
			pages[a>>12] = true
		}
		for _, a := range sample {
			check("sampled", a)
		}
		if got.Pages() != len(pages) {
			t.Errorf("%s: image holds %d pages, InitMem writes %d", w.Name, got.Pages(), len(pages))
		}
		// A store materializes its page from the background: the rest of
		// the page must still read as the reference.
		st := warmBase + warm/2 + 64
		got.Write(st, 7)
		want.Write(st, 7)
		for a := st &^ 4095; a < st&^4095+4096; a += 8 {
			check("materialized", a)
		}
	}
	if tables != 10 {
		t.Errorf("%d workloads have a uniform warm table, want 10", tables)
	}
}
