// Package workload defines the 60-application study list (paper Table III)
// as generated mini-ISA kernels. Each paper workload maps to a kernel
// template instantiated with a parameter profile tuned to reproduce the
// behaviour class that matters to value prediction: working-set sizes
// (which levels delinquent loads hit), branch entropy (SPEC17-like
// mispredict-bound codes), stack spill/reload traffic (server-like
// store→load forwarding), value-stable configuration loads on address
// chains (what FVP predicts), and serial pointer chases (what nothing can
// predict).
package workload

import (
	"fvp/internal/isa"
	"fvp/internal/prog"
)

// Memory-map constants shared by all kernels.
const (
	cfgBase    = 0x0000_1000 // hot-ish scalars with stable values
	frameBase  = 0x0000_2000 // spill slots (store→load forwarding)
	streamA    = 0x0010_0000
	streamB    = 0x0030_0000
	streamOut  = 0x0050_0000
	warmBase   = 0x0100_0000 // L2/LLC-resident tables
	coldBase   = 0x1000_0000 // DRAM-resident heap
	hashConst  = 0x9E3779B1  // Fibonacci hashing multiplier
	hashConst2 = 0x85EBCA6B
)

// Registers by convention (isa.Reg 0 is the zero register).
const (
	rI    isa.Reg = 1 // loop counter
	rN    isa.Reg = 2 // trip count
	rSum  isa.Reg = 3 // accumulator
	rCur  isa.Reg = 4 // chase cursor
	rT0   isa.Reg = 5
	rT1   isa.Reg = 6
	rT2   isa.Reg = 7
	rT3   isa.Reg = 8
	rT4   isa.Reg = 9
	rCfg  isa.Reg = 10 // cfg block base
	rCold isa.Reg = 11
	rWarm isa.Reg = 12
	rStrA isa.Reg = 13
	rStrB isa.Reg = 14
	rOut  isa.Reg = 15
	rFrm  isa.Reg = 16
	rAcc2 isa.Reg = 17
	rT5   isa.Reg = 18
	rT6   isa.Reg = 19
	rLnk  isa.Reg = 20
)

// Params tunes one kernel instantiation.
type Params struct {
	// Seed differentiates otherwise-identical profiles.
	Seed uint64
	// ColdBytes is the DRAM-resident footprint (power of two).
	ColdBytes uint64
	// WarmBytes is the L2/LLC-resident footprint (power of two).
	WarmBytes uint64
	// StreamBytes is the sequential-array footprint (power of two).
	StreamBytes uint64
	// StableLoads is how many distinct cfg scalars each iteration loads
	// on the cold load's address chain (the FVP targets).
	StableLoads int
	// ALUChain/FPChain insert serial arithmetic between the stable loads
	// and the cold load.
	ALUChain int
	FPChain  int
	// BranchEntropy: 0 = perfectly patterned branches, 1 = coin flips on
	// loaded data.
	BranchEntropy float64
	// PadALU adds independent compute per iteration (four-wide ILP), the
	// knob that decides whether the baseline is width-bound (Skylake)
	// before it is chain-bound (Skylake-2X).
	PadALU int
	// BgLoads adds independent L1-resident loads of stable scalars from
	// distinct PCs/addresses each iteration — the predictable-PC tail of
	// real code. They are off every critical path (FVP ignores them) but
	// compete for the small tables of coverage-maximizing predictors.
	BgLoads int
	// MissShift gates the delinquent load to every 2^MissShift-th
	// iteration (0 = every iteration). Sparse misses are hidden behind
	// width limits on the small core but exposed on the scaled one —
	// the paper's gcc behaviour in Fig 9.
	MissShift uint
	// WarmPtr routes the cold load's address chain through a slow,
	// value-stable pointer-table load (the FVP target pattern); the
	// warm region then reads as a uniform value.
	WarmPtr bool
	// WarmPtr2 adds a second pointer-table level: two serial, slow,
	// value-stable loads on the cold load's address chain (deeply
	// indirect object graphs). Implies a WarmPtr-style uniform table.
	WarmPtr2 bool
	// Spill enables a stack spill/reload of the pointer feeding the cold
	// load (Memory-Renaming fodder).
	Spill bool
	// SpillDist inserts filler work between spill and reload so the
	// forwarding distance is realistic.
	SpillDist int
	// StoreEvery issues a store to the cold region every 2^k iterations
	// (0 disables); creates dirty traffic and memory-order checks.
	StoreEvery uint
	// MutateEvery rewrites a cfg scalar every 2^k iterations (0 =
	// never). MutateSame rewrites the same value (forwarding without
	// misprediction); otherwise the value toggles (exercises VP
	// flushes).
	MutateEvery uint
	MutateSame  bool
	// CodeBlocks replicates the loop body across this many call targets
	// (instruction-cache pressure, server-style).
	CodeBlocks int
	// Unroll repeats the independent part of the body.
	Unroll int
}

// uniformTable is a kernel's warm pointer table: from warmBase, bytes
// bytes whose words hold low below mid and high from mid on (WarmPtr2's
// two levels; a one-level table has mid == warmBase). bytes == 0 means
// the kernel has no table.
type uniformTable struct {
	bytes, mid, low, high uint64
}

// background returns the deterministic value of never-written memory:
// the table's values inside it, an address hash everywhere else. The
// table thus exists without pages, like the cold heap. It is one function
// with the hash inline, since every read of a page never written calls it.
func background(seed uint64, t uniformTable) func(uint64) uint64 {
	return func(addr uint64) uint64 {
		if addr-warmBase < t.bytes {
			if addr < t.mid {
				return t.low
			}
			return t.high
		}
		x := addr ^ seed ^ 0x517C_C1B7_2722_0A95
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
		return x
	}
}

// kernelBuilder carries shared helpers for kernel construction.
type kernelBuilder struct {
	*prog.Builder
	p     Params
	rng   *prog.RNG
	nlbl  int
	bgSeq int
}

func newKernel(name string, p Params) *kernelBuilder {
	k := &kernelBuilder{
		Builder: prog.NewBuilder(name),
		p:       p,
		rng:     prog.NewRNG(p.Seed | 1),
	}
	// Common preamble: base registers. MovI immediates keep restarts
	// self-initializing.
	k.MovI(rCfg, cfgBase)
	k.MovI(rFrm, frameBase)
	k.MovI(rCold, coldBase)
	k.MovI(rWarm, warmBase)
	k.MovI(rStrA, streamA)
	k.MovI(rStrB, streamB)
	k.MovI(rOut, streamOut)
	k.MovI(rSum, 0)
	k.MovI(rAcc2, 1)
	k.MovI(rCur, 0)
	k.MovI(rI, 0)
	k.MovI(rN, 1<<30) // effectively endless; Halt is unreachable in runs
	return k
}

func (k *kernelBuilder) finish() *prog.Program {
	p := k.MustBuild()
	// cfg scalars hold small stable values used as masks/scales; they
	// must be explicit (the background hash would make masks useless).
	if p.InitMem == nil {
		p.InitMem = map[uint64]uint64{}
	}
	cold := k.p.ColdBytes
	if cold == 0 {
		cold = 32 << 20
	}
	warm := k.p.WarmBytes
	if warm == 0 {
		warm = 2 << 20
	}
	p.InitMem[cfgBase+0] = cold - 1 // cold mask
	p.InitMem[cfgBase+8] = warm - 1 // warm mask
	p.InitMem[cfgBase+16] = 24      // scale
	// Neutral AND-masks for the extra stable loads of deep chains: the
	// chain's combined mask must stay the cold mask.
	for i := 0; i < 8; i++ {
		p.InitMem[cfgBase+48+uint64(i)*8] = ^uint64(0)
	}
	// Background stable scalars (BgLoads tail): distinct constants.
	for i := 0; i < 48; i++ {
		p.InitMem[cfgBase+256+uint64(i)*8] = 0x1111*uint64(i) + 7
	}
	var tbl uniformTable
	switch {
	case k.p.WarmPtr2:
		// Two-level pointer tables: the first half of the warm region
		// holds the index mask of the second half; the second half
		// holds the cold mask. Both are uniform (replicated
		// base-pointer value locality).
		half := warm / 2
		p.InitMem[cfgBase+24] = half - 1
		tbl = uniformTable{bytes: warm, mid: warmBase + half, low: half - 1, high: cold - 1}
	case k.p.WarmPtr:
		// Uniform pointer table: every word holds the cold mask
		// (replicated base-pointer value locality).
		tbl = uniformTable{bytes: warm, mid: warmBase, high: cold - 1}
	}
	p.Background = background(k.p.Seed, tbl)
	// Steady-state cache image: the warm table lives in the LLC (and L2
	// when it fits); an LLC-sized-or-smaller "cold" region is LLC
	// resident in steady state — only larger ones truly live in DRAM.
	stream := k.p.StreamBytes
	if stream == 0 {
		stream = 1 << 20
	}
	p.WarmRanges = []prog.WarmRange{
		{Base: cfgBase, Bytes: 4096, Level: 0},
		{Base: frameBase, Bytes: 4096, Level: 0},
		{Base: streamA, Bytes: stream, Level: 2},
		{Base: streamB, Bytes: stream, Level: 2},
	}
	wl := 2
	if warm <= 128<<10 {
		wl = 1
	}
	p.WarmRanges = append(p.WarmRanges, prog.WarmRange{Base: warmBase, Bytes: warm, Level: wl})
	if cold <= 6<<20 {
		p.WarmRanges = append(p.WarmRanges, prog.WarmRange{Base: coldBase, Bytes: cold, Level: 2})
	}
	return p
}

// streamMask returns the AND-mask for stream array indexing.
func (k *kernelBuilder) streamMask() int64 {
	s := k.p.StreamBytes
	if s == 0 {
		s = 1 << 20
	}
	return int64(s - 1)
}

// emitStreamLoad loads the next element of a sequential array into dst:
// dst = mem[base + (i*8 & mask)]. L1-friendly under the stride prefetcher.
func (k *kernelBuilder) emitStreamLoad(dst, base isa.Reg, scratch isa.Reg) {
	k.Shl(scratch, rI, 3)
	k.And(scratch, scratch, k.streamMask())
	k.Add(scratch, base, scratch)
	k.Load(dst, scratch, 0)
}

// emitStableChain loads p.StableLoads cfg scalars and mixes them into dst
// (the cold load's address depends on them). These are the loads FVP's
// Last-Value predictor captures: fixed address, constant value, but often
// evicted to L2/LLC by the cold traffic.
func (k *kernelBuilder) emitStableChain(dst isa.Reg) {
	k.Load(dst, rCfg, 0) // cold mask (constant value)
	for i := 1; i < k.p.StableLoads; i++ {
		off := int64(48 + (i%8)*8) // neutral all-ones masks
		k.Load(rT5, rCfg, off)
		k.AndR(dst, dst, rT5)
	}
}

// emitALUChain inserts a serial arithmetic chain of the requested length,
// in-place on reg.
func (k *kernelBuilder) emitALUChain(reg isa.Reg, n int) {
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			k.XorI(reg, reg, int64(0x55+i))
		case 1:
			k.AddI(reg, reg, int64(i+1))
		case 2:
			k.Shr(rT6, reg, 7)
			k.Xor(reg, reg, rT6)
		}
	}
}

// emitFPChain inserts a serial floating-point-class chain on reg.
func (k *kernelBuilder) emitFPChain(reg isa.Reg, n int) {
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			k.FAdd(reg, reg, rAcc2)
		} else {
			k.FMul(reg, reg, rAcc2)
		}
	}
}

// emitColdLoad emits the delinquent load: dst = mem[cold + (hash & mask)]
// where mask comes from maskReg (the stable-load chain) and hash mixes
// hashReg (per-iteration data) with the loop counter, so the address stream
// never falls into a short revisit cycle (it stays DRAM-cold).
func (k *kernelBuilder) emitColdLoad(dst, hashReg, maskReg isa.Reg) {
	k.MulI(rT6, hashReg, hashConst)
	k.MulI(rT5, rI, hashConst2)
	k.Xor(rT6, rT6, rT5)
	k.Shr(rT5, rT6, 13)
	k.Xor(rT6, rT6, rT5)
	k.AndR(rT6, rT6, maskReg)
	k.And(rT6, rT6, ^int64(7))
	k.Add(rT6, rCold, rT6)
	k.Load(dst, rT6, 0)
}

// emitWarmPtrLoad emits the paper's Fig.-1 pattern: a load from a large
// (L2/LLC-resident) pointer table whose *value* is the same everywhere —
// the classic value-locality case of replicated arena/base pointers. The
// load is slow (its address varies across WarmBytes) but Last-Value
// predictable, and the cold load's address chain runs through it: exactly
// what FVP targets. dst receives the table value (the cold mask).
func (k *kernelBuilder) emitWarmPtrLoad(dst, hashReg isa.Reg) {
	k.Load(rT5, rCfg, 8) // warm mask (hot scalar)
	k.MulI(rT6, hashReg, hashConst2)
	k.Shr(dst, rT6, 9)
	k.Xor(rT6, rT6, dst)
	k.AndR(rT6, rT6, rT5)
	k.And(rT6, rT6, ^int64(7))
	k.Add(rT6, rWarm, rT6)
	k.Load(dst, rT6, 0) // stable value: the cold mask
}

// emitWarmPtr2Chain emits the two-level pointer walk: two serial
// LLC-latency loads with uniform (predictable) values ending with the cold
// mask in dst. hashReg supplies per-iteration entropy.
func (k *kernelBuilder) emitWarmPtr2Chain(dst, hashReg isa.Reg) {
	k.Load(rT5, rCfg, 24) // first-level mask (stable hot scalar)
	k.MulI(rT6, hashReg, hashConst2)
	k.Shr(dst, rT6, 9)
	k.Xor(rT6, rT6, dst)
	k.AndR(rT6, rT6, rT5)
	k.And(rT6, rT6, ^int64(7))
	k.Add(rT6, rWarm, rT6)
	k.Load(dst, rT6, 0) // level-1 pointer load: value = level-2 mask
	// Level 2: index the second half with fresh entropy masked by the
	// level-1 value (a true serial dependence).
	k.MulI(rT6, hashReg, 0x27D4EB2F)
	k.Shr(rT5, rT6, 15)
	k.Xor(rT6, rT6, rT5)
	k.AndR(rT6, rT6, dst)
	k.And(rT6, rT6, ^int64(7))
	k.Add(rT6, rWarm, rT6)
	k.Load(rT5, rCfg, 24) // re-fetch the half size to offset into half 2
	k.AddI(rT5, rT5, 1)
	k.Add(rT6, rT6, rT5)
	k.Load(dst, rT6, 0) // level-2 pointer load: value = cold mask
}

// emitBgLoads emits n independent loads of distinct stable scalars (the
// cfg block is padded with constants at offsets 256+). Each call site is a
// distinct PC reading a distinct address whose value never changes.
func (k *kernelBuilder) emitBgLoads(n int) {
	pads := [4]isa.Reg{25, 26, 27, 28}
	for j := 0; j < n; j++ {
		k.bgSeq++
		off := int64(256 + (k.bgSeq%48)*8)
		k.Load(pads[j%4], rCfg, off)
	}
}

// emitPad emits n independent single-cycle ALU operations across eight
// rotating accumulators (ILP ≈ 8), modelling wide surrounding compute: it
// consumes fetch/rename/issue bandwidth without adding a serial chain.
func (k *kernelBuilder) emitPad(n int) {
	pads := [8]isa.Reg{21, 22, 23, 24, 25, 26, 27, 28}
	for j := 0; j < n; j++ {
		r := pads[j%8]
		if j%2 == 0 {
			k.AddI(r, r, int64(j+1))
		} else {
			k.XorI(r, r, int64(j*7+3))
		}
	}
}

// emitEntropyBranch emits a data-dependent branch whose predictability is
// controlled by the entropy parameter: it tests loaded data masked down so
// that low entropy gives an almost-always-taken (predictable) branch and
// entropy 1.0 gives a coin flip.
func (k *kernelBuilder) emitEntropyBranch(dataReg isa.Reg, label string) {
	mask := int64(1)
	if k.p.BranchEntropy < 0.10 {
		mask = 0xFF // taken ~1/256: easily predicted
	} else if k.p.BranchEntropy < 0.35 {
		mask = 0xF // ~6% taken
	} else if k.p.BranchEntropy < 0.7 {
		mask = 0x3 // 25% taken
	}
	k.And(rT6, dataReg, mask)
	k.BEZ(rT6, label)
}
