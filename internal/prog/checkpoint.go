package prog

import "fvp/internal/isa"

// Checkpoint is an immutable architectural snapshot of an Exec: register
// file, program position, call stack, restart accounting, and a
// copy-on-write reference to the memory image. It is the unit of the
// harness's region-parallel simulation: one fast functional pass takes a
// checkpoint at each region boundary, and each region worker restores its
// checkpoint into a private Exec.
//
// The resume guarantee is exact: Restore yields an Exec whose DynInst
// stream is byte-identical to the stream the source Exec would have
// produced from the checkpointed instruction onward (enforced by
// TestCheckpointResumeExact and FuzzCheckpointRestore).
type Checkpoint struct {
	prog        *Program
	regs        [isa.NumArchRegs]uint64
	mem         *Memory
	pc          int
	seq         uint64
	stack       []int
	halted      bool
	restarts    int
	maxRestarts int
}

// Checkpoint captures the executor's current architectural state. The
// memory image is shared copy-on-write, so the cost is O(touched pages)
// pointer copies; later writes — by the live Exec or by any restored one —
// copy only the pages they dirty.
func (e *Exec) Checkpoint() *Checkpoint {
	return &Checkpoint{
		prog:        e.prog,
		regs:        e.regs,
		mem:         e.mem.Clone(),
		pc:          e.pc,
		seq:         e.seq,
		stack:       append([]int(nil), e.stack...),
		halted:      e.halted,
		restarts:    e.restarts,
		maxRestarts: e.MaxRestarts,
	}
}

// Seq returns the dynamic instruction count at which the checkpoint was
// taken: the Seq of the next instruction a restored Exec will produce.
func (cp *Checkpoint) Seq() uint64 { return cp.seq }

// Restore materializes a fresh Exec resuming exactly at the checkpoint.
// It may be called any number of times, from concurrent goroutines: each
// call returns an independent Exec whose memory copy-on-write shares the
// checkpointed pages.
func (cp *Checkpoint) Restore() *Exec {
	return &Exec{
		prog:        cp.prog,
		regs:        cp.regs,
		mem:         cp.mem.Clone(),
		pc:          cp.pc,
		seq:         cp.seq,
		stack:       append([]int(nil), cp.stack...),
		halted:      cp.halted,
		restarts:    cp.restarts,
		MaxRestarts: cp.maxRestarts,
	}
}

// Memory returns a copy-on-write clone of the checkpointed memory image —
// the initial retired-memory shadow for a core simulating this region.
func (cp *Checkpoint) Memory() *Memory { return cp.mem.Clone() }

// PageBytes returns the bytes of the distinct memory pages that the
// checkpoints' images reference: what holding on to them keeps alive.
func PageBytes(cps []*Checkpoint) int64 {
	seen := make(map[*memPage]struct{})
	for _, cp := range cps {
		for _, p := range cp.mem.pages {
			seen[p] = struct{}{}
		}
	}
	return int64(len(seen)) << pageShift
}
