package workload

import (
	"fmt"

	"fvp/internal/prog"
)

// lbl returns a unique label with the given prefix.
func (k *kernelBuilder) lbl(prefix string) string {
	k.nlbl++
	return fmt.Sprintf("%s_%d", prefix, k.nlbl)
}

// emitMutation rewrites a stable cfg scalar every 2^MutateEvery iterations
// (a value-locality phase change when MutateSame is false).
func (k *kernelBuilder) emitMutation() {
	if k.p.MutateEvery == 0 {
		return
	}
	skip := k.lbl("nomut")
	k.And(rT5, rI, int64(1)<<k.p.MutateEvery-1)
	k.BNZ(rT5, skip)
	k.Load(rT5, rCfg, 48)
	if !k.p.MutateSame {
		// Flip a high bit: loads of cfg+48 change value (VP flush
		// fodder) while the combined AND-mask stays valid.
		k.XorI(rT5, rT5, int64(1)<<62)
	}
	k.Store(rCfg, 48, rT5)
	k.Label(skip)
}

// emitColdStore stores the accumulator to a hashed cold address every
// 2^StoreEvery iterations.
func (k *kernelBuilder) emitColdStore() {
	if k.p.StoreEvery == 0 {
		return
	}
	skip := k.lbl("nost")
	k.And(rT5, rI, int64(1)<<k.p.StoreEvery-1)
	k.BNZ(rT5, skip)
	k.MulI(rT5, rI, hashConst2)
	k.Load(rT6, rCfg, 0)
	k.AndR(rT5, rT5, rT6)
	k.And(rT5, rT5, ^int64(7))
	k.Add(rT5, rCold, rT5)
	k.Store(rT5, 0, rSum)
	k.Label(skip)
}

// emitLoopTail increments the counter and loops.
func (k *kernelBuilder) emitLoopTail(loop string) {
	k.AddI(rI, rI, 1)
	k.BLT(rI, rN, loop)
	k.Halt()
}

// emitIndirectBody is the FVP-friendly core pattern: a delinquent cold load
// whose address chain runs through value-stable configuration loads and a
// per-iteration hash (paper Fig. 1/4 shape).
func (k *kernelBuilder) emitIndirectBody() {
	var missSkip string
	if k.p.MissShift > 0 {
		// Sparse-miss gate: the whole dependent-chain block runs every
		// 2^MissShift-th iteration (perfectly predictable branch).
		missSkip = k.lbl("miss")
		k.And(rT6, rI, int64(1)<<k.p.MissShift-1)
		k.BNZ(rT6, missSkip)
	}
	k.emitStreamLoad(rT0, rStrA, rT1) // per-iteration data (random values)
	k.emitALUChain(rT0, k.p.ALUChain) // serial work on the data
	switch {
	case k.p.WarmPtr2:
		k.emitWarmPtr2Chain(rT2, rT0)
	case k.p.WarmPtr:
		// Slow, value-stable pointer-table load on the cold load's
		// address chain — the primary FVP target.
		k.emitWarmPtrLoad(rT2, rT0)
	default:
		k.emitStableChain(rT2)
	}
	if k.p.Spill {
		// Spill the mask pointer and reload it: the reload forwards
		// from the store in the LSQ and is Memory-Renaming
		// predictable.
		k.Store(rFrm, 0, rT2)
		for j := 0; j < k.p.SpillDist; j++ {
			k.AddI(rT3, rT3, 1)
		}
		k.Load(rT2, rFrm, 0)
	}
	k.emitColdLoad(rT4, rT0, rT2)
	k.Add(rSum, rSum, rT4)
	if k.p.FPChain > 0 {
		// Per-iteration FP work on the loaded data (not loop-carried:
		// real FP codes break accumulators across iterations).
		k.FAdd(rT3, rT4, rAcc2)
		k.emitFPChain(rT3, k.p.FPChain)
	}
	if k.p.BranchEntropy > 0 {
		skip := k.lbl("ebr")
		k.emitEntropyBranch(rT4, skip)
		k.AddI(rSum, rSum, 3)
		k.Label(skip)
	}
	if missSkip != "" {
		k.Label(missSkip)
	}
	k.emitPad(k.p.PadALU)
	k.emitBgLoads(k.p.BgLoads)
}

// buildIndirect produces the two-level indirection kernel.
func buildIndirect(name string, p Params) *prog.Program {
	k := newKernel(name, p)
	k.Label("loop")
	unroll := p.Unroll
	if unroll <= 0 {
		unroll = 1
	}
	for u := 0; u < unroll; u++ {
		k.emitIndirectBody()
	}
	k.emitMutation()
	k.emitColdStore()
	k.emitLoopTail("loop")
	return k.finish()
}

// buildChase produces the serial pointer chase: a dependence chain through
// DRAM that no value predictor can break (mcf/gcc shape: coverage without
// speedup). Side stable loads give the predictors something to cover.
func buildChase(name string, p Params) *prog.Program {
	k := newKernel(name, p)
	k.Label("loop")
	k.Add(rT0, rCold, rCur)
	k.Load(rT1, rT0, 0) // serial DRAM load (value = address hash)
	k.Load(rT2, rCfg, 0)
	// next = (value ^ iteration salt) & coldMask: serial through the
	// loaded value, salted so the walk never closes a short cycle.
	k.MulI(rT4, rI, hashConst2)
	k.Xor(rT3, rT1, rT4)
	k.AndR(rCur, rT3, rT2)
	k.And(rCur, rCur, ^int64(7))
	k.Add(rSum, rSum, rT1)
	// Covered-but-useless side work: stable loads off the serial chain.
	for i := 0; i < p.StableLoads; i++ {
		k.Load(rT3, rCfg, int64(48+(i%8)*8))
		k.Add(rSum, rSum, rT3)
	}
	k.emitALUChain(rSum, p.ALUChain)
	if p.BranchEntropy > 0 {
		skip := k.lbl("ebr")
		k.emitEntropyBranch(rT1, skip)
		k.AddI(rSum, rSum, 1)
		k.Label(skip)
	}
	k.emitLoopTail("loop")
	return k.finish()
}

// buildStream produces the prefetch-friendly streaming kernel (libquantum/
// lbm/bwaves shape: high baseline IPC, little for value prediction to do).
func buildStream(name string, p Params) *prog.Program {
	k := newKernel(name, p)
	k.Label("loop")
	unroll := p.Unroll
	if unroll <= 0 {
		unroll = 2
	}
	for u := 0; u < unroll; u++ {
		k.emitStreamLoad(rT0, rStrA, rT1)
		k.emitStreamLoad(rT2, rStrB, rT3)
		k.Add(rT4, rT0, rT2)
		if p.FPChain > 0 {
			k.FMul(rT4, rT4, rAcc2)
		}
		k.Shl(rT1, rI, 3)
		k.And(rT1, rT1, k.streamMask())
		k.Add(rT1, rOut, rT1)
		k.Store(rT1, 0, rT4)
		k.Add(rSum, rSum, rT4)
	}
	k.emitLoopTail("loop")
	return k.finish()
}

// buildStencil produces the FP stencil: warm-grid loads feeding a serial
// floating-point chain scaled by stable coefficient loads (FSPEC shape).
func buildStencil(name string, p Params) *prog.Program {
	k := newKernel(name, p)
	k.Label("loop")
	// Quadratic grid walk (i² scaling, like row-major plane sweeps with
	// data-dependent row lengths): the per-access stride keeps changing,
	// so neither the PC-stride nor the stream prefetcher covers it and
	// grid loads genuinely pay L2/LLC latency.
	k.Mul(rT0, rI, rI)
	k.Shl(rT0, rT0, 3)
	k.Load(rT1, rCfg, 8) // warm mask (stable)
	k.AndR(rT0, rT0, rT1)
	k.Add(rT0, rWarm, rT0)
	k.Load(rT2, rT0, 0)
	k.Load(rT3, rT0, 8)
	k.Load(rT4, rT0, 16)
	k.FAdd(rT2, rT2, rT3)
	k.FAdd(rT2, rT2, rT4)
	k.Load(rT5, rCfg, 16) // coefficient (stable value)
	k.FMul(rT2, rT2, rT5)
	// Per-element FP chain (no loop-carried accumulator).
	k.emitFPChain(rT2, p.FPChain)
	if p.ColdBytes > 0 && p.StableLoads > 0 {
		// Occasional cold gather (milc/gemsfdtd-like LLC misses).
		k.emitStableChain(rT1)
		k.emitColdLoad(rT3, rT2, rT1)
		k.Add(rSum, rSum, rT3)
	}
	k.Shl(rT0, rI, 3)
	k.And(rT0, rT0, k.streamMask())
	k.Add(rT0, rOut, rT0)
	k.Store(rT0, 0, rT2)
	k.emitLoopTail("loop")
	return k.finish()
}

// buildBranchy produces the mispredict-bound kernel (SPEC17/game-tree
// shape): data-dependent branches on loaded values that defeat TAGE and —
// per §IV-A2 — value prediction alike.
func buildBranchy(name string, p Params) *prog.Program {
	k := newKernel(name, p)
	k.Label("loop")
	k.emitStreamLoad(rT0, rStrA, rT1)
	// Three data-dependent diamonds with different skews.
	for j := 0; j < 3; j++ {
		other := k.lbl("else")
		join := k.lbl("join")
		k.Shr(rT2, rT0, int64(j*7))
		k.emitEntropyBranch(rT2, other)
		k.AddI(rSum, rSum, int64(j+1))
		k.Jump(join)
		k.Label(other)
		k.XorI(rSum, rSum, int64(j+17))
		k.Label(join)
	}
	// A patterned branch TAGE learns (keeps mispredict rate < 50%).
	skip := k.lbl("pat")
	k.And(rT2, rI, 7)
	k.BNZ(rT2, skip)
	k.AddI(rSum, rSum, 9)
	k.Label(skip)
	if p.ColdBytes > 0 {
		k.emitStableChain(rT3)
		k.emitColdLoad(rT4, rT0, rT3)
		k.Add(rSum, rSum, rT4)
	}
	k.emitALUChain(rSum, p.ALUChain)
	k.emitLoopTail("loop")
	return k.finish()
}

// buildHash produces the server kernel: dispatch over many replicated
// handler functions (instruction footprint + calls/returns), stack
// spill/reload of the pointer that feeds a delinquent load (store→load
// forwarding, the Memory-Renaming target), and warm-table mutation.
func buildHash(name string, p Params) *prog.Program {
	k := newKernel(name, p)
	blocks := p.CodeBlocks
	if blocks <= 0 {
		blocks = 8
	}
	k.Jump("dispatch")

	// Handler functions.
	for b := 0; b < blocks; b++ {
		k.Label(fmt.Sprintf("fn_%d", b))
		// Compute a bucket pointer.
		k.emitStreamLoad(rT0, rStrA, rT1)
		k.Load(rT2, rCfg, 8) // warm mask (stable hot scalar)
		k.MulI(rT3, rT0, hashConst)
		k.AndR(rT3, rT3, rT2)
		k.And(rT3, rT3, ^int64(7))
		k.Add(rT3, rWarm, rT3)
		// Spill it to a data-dependent slot: both the store's and the
		// reload's addresses resolve late, so without Memory Renaming
		// the reload serializes behind address generation plus LSQ
		// forwarding — MR hands its consumers the store data directly.
		k.And(rT4, rT0, 0x38)
		k.Add(rT4, rFrm, rT4)
		k.Store(rT4, 0, rT3) // spill bucket pointer
		dist := p.SpillDist
		if dist <= 0 {
			dist = 6
		}
		for j := 0; j < dist; j++ {
			k.AddI(rLnk, rLnk, int64(j+1))
		}
		// Recompute the slot through a slow identity chain (XOR twice
		// with the same constants): the reload's address resolves
		// late, so MR's early value delivery has real latency to save.
		k.XorI(rT5, rT0, 0x5A)
		for j := 0; j < (dist+1)/2; j++ {
			k.XorI(rT5, rT5, int64(0x11+j))
			k.XorI(rT5, rT5, int64(0x11+j))
		}
		k.XorI(rT5, rT5, 0x5A)
		k.And(rT5, rT5, 0x38)
		k.Add(rT5, rFrm, rT5)
		k.Load(rT3, rT5, 0) // reload (the MR target)
		k.Load(rT5, rT3, 0) // warm bucket value
		if p.Spill {
			// Second spill/reload hop: the bucket value itself is
			// spilled and reloaded through another late-resolving
			// slot (nested call frames) — a second MR target on the
			// same serial chain.
			k.And(rT6, rT0, 0x38)
			k.Add(rT6, rFrm, rT6)
			k.Store(rT6, 64, rT5)
			for j := 0; j < dist/2; j++ {
				k.AddI(rLnk, rLnk, int64(j+3))
			}
			k.XorI(rT6, rT0, 0x2D)
			for j := 0; j < (dist+1)/2; j++ {
				k.XorI(rT6, rT6, int64(0x21+j))
				k.XorI(rT6, rT6, int64(0x21+j))
			}
			k.XorI(rT6, rT6, 0x2D)
			k.And(rT6, rT6, 0x38)
			k.Add(rT6, rFrm, rT6)
			k.Load(rT5, rT6, 64) // second reload (MR target)
		}
		// Delinquent load: bucket value salted with the iteration.
		k.MulI(rT6, rI, hashConst2)
		k.Xor(rT5, rT5, rT6)
		k.Load(rT6, rCfg, 0)
		k.AndR(rT5, rT5, rT6)
		k.And(rT5, rT5, ^int64(7))
		k.Add(rT5, rCold, rT5)
		k.Load(rT5, rT5, 0)
		k.Add(rSum, rSum, rT5)
		// Occasional warm-table mutation (bucket values change slowly).
		mutSkip := k.lbl("wmut")
		k.And(rT4, rI, 0xFFF)
		k.BNZ(rT4, mutSkip)
		k.Store(rT3, 0, rT5)
		k.Label(mutSkip)
		// Code-footprint padding: distinct PCs per handler, with
		// enough ILP that it models surrounding compute rather than an
		// artificial serial chain, plus the predictable-PC load tail.
		k.emitPad(p.Unroll * 2)
		k.emitBgLoads(p.BgLoads)
		k.Ret()
	}

	// Dispatcher: if-chain over handlers (branchy, server-style).
	// Handler selection is phase-based (requests of one type arrive in
	// batches), so each handler's PCs stay hot for thousands of
	// iterations at a time — the recurrence FVP's 2-entry Learning
	// Table needs.
	k.Label("dispatch")
	k.Label("loop")
	k.Shr(rT0, rI, 10)
	k.And(rT0, rT0, int64(blocks-1))
	for b := 0; b < blocks-1; b++ {
		next := k.lbl("disp")
		k.SubI(rT1, rT0, int64(b))
		k.BNZ(rT1, next)
		k.Call(fmt.Sprintf("fn_%d", b))
		k.Jump("callret")
		k.Label(next)
	}
	k.Call(fmt.Sprintf("fn_%d", blocks-1))
	k.Label("callret")
	k.emitMutation()
	k.emitLoopTail("loop")
	return k.finish()
}

// buildCompute produces the integer-compute kernel (h264ref/hmmer shape):
// serial multiply chains fed by table loads, few misses, mostly predictable
// branches.
func buildCompute(name string, p Params) *prog.Program {
	k := newKernel(name, p)
	k.Label("loop")
	k.Load(rT0, rCfg, 16) // stable scale
	k.MulI(rT1, rI, 24)
	k.Load(rT2, rCfg, 8)
	k.AndR(rT1, rT1, rT2)
	k.Add(rT1, rWarm, rT1)
	k.Load(rT3, rT1, 0) // warm table load
	// Serial multiply-accumulate chain.
	chain := p.ALUChain
	if chain <= 0 {
		chain = 4
	}
	for j := 0; j < chain; j++ {
		if j%4 == 3 {
			k.Mul(rSum, rSum, rT0)
		} else {
			k.Add(rSum, rSum, rT3)
			k.XorI(rSum, rSum, int64(j*3+1))
		}
	}
	if p.BranchEntropy > 0 {
		skip := k.lbl("ebr")
		k.emitEntropyBranch(rT3, skip)
		k.AddI(rSum, rSum, 2)
		k.Label(skip)
	}
	if p.ColdBytes > 0 && p.StableLoads > 0 {
		k.emitStableChain(rT4)
		k.emitColdLoad(rT5, rT3, rT4)
		k.Add(rSum, rSum, rT5)
	}
	k.emitLoopTail("loop")
	return k.finish()
}

// buildMixed alternates between an indirect phase and a branchy phase every
// 2^14 iterations (perlbench/gcc shape; also exercises the criticality
// epoch logic).
func buildMixed(name string, p Params) *prog.Program {
	k := newKernel(name, p)
	k.Label("loop")
	k.And(rT0, rI, int64(1)<<14)
	k.BNZ(rT0, "phase2")
	k.emitIndirectBody()
	k.Jump("tail")
	k.Label("phase2")
	k.emitStreamLoad(rT0, rStrA, rT1)
	for j := 0; j < 2; j++ {
		skip := k.lbl("ebr")
		k.Shr(rT2, rT0, int64(j*9))
		k.emitEntropyBranch(rT2, skip)
		k.AddI(rSum, rSum, int64(j+1))
		k.Label(skip)
	}
	k.emitALUChain(rSum, p.ALUChain)
	k.Label("tail")
	k.emitMutation()
	k.emitLoopTail("loop")
	return k.finish()
}
