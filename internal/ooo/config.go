// Package ooo implements the trace-driven, cycle-level out-of-order core
// model: fetch (with I-cache and branch prediction), rename (RAT plus the
// RAT-PC last-writer extension FVP needs), dispatch into ROB/IQ/LQ/SQ,
// port-constrained issue, a load/store queue with store→load forwarding and
// store-sets disambiguation, value-prediction integration with
// validation-triggered flushes, and in-order retirement with
// retirement-stall detection.
package ooo

import (
	"fvp/internal/cache"
	"fvp/internal/dram"
	"fvp/internal/memsys"
)

// Config holds every structural and timing parameter of the core.
type Config struct {
	// Name labels the configuration in reports.
	Name string

	// Front end.
	FetchWidth int
	// FrontEndDepth is the fetch→rename latency in cycles.
	FrontEndDepth uint64
	// FetchBufferSize bounds fetched-but-not-renamed micro-ops.
	FetchBufferSize int
	// BranchMispredictPenalty is the redirect bubble after a resolved
	// mispredicted branch (paper: 20).
	BranchMispredictPenalty uint64

	// Window.
	RenameWidth int
	ROBSize     int
	IQSize      int
	LQSize      int
	SQSize      int
	RetireWidth int

	// Execution ports (issue budget per cycle per class).
	ALUPorts    int
	LoadPorts   int
	StorePorts  int // store-address issue slots
	FPPorts     int
	BranchPorts int

	// Latencies (cycles from issue to result).
	ALULat     uint64
	IMulLat    uint64
	IDivLat    uint64
	FPLat      uint64
	FPDivLat   uint64
	ForwardLat uint64 // store→load forwarding latency

	// Value prediction.
	VPMispredictPenalty uint64 // paper: 20 cycles

	// Memory-order machinery.
	MemFlushPenalty uint64 // ordering-violation machine clear
	SSITBits        uint
	LFSTBits        uint
	// ConservativeMemDisambiguation makes loads wait for every older
	// store's address instead of speculating with store-sets (an
	// ablation of the Table-II "aggressive memory disambiguation").
	ConservativeMemDisambiguation bool

	// DisableIdleElision forces the per-cycle ticking loop instead of
	// idle-cycle elision (see elide.go). The modeled machine is identical
	// either way — elision is a simulator-speed optimization, proven
	// bit-exact by the golden-stat matrix and the tick-equivalence tests,
	// which use this switch to run both paths in one process.
	DisableIdleElision bool

	// Memory hierarchy.
	Mem memsys.Config
}

// skylakeMem returns the Table-II hierarchy: 32 KB/8w L1D (5 cyc), 64 KB/8w
// L1I, 256 KB/16w private L2 (15 cyc round trip), 8 MB/16w LLC (40 cyc),
// two channels of DDR4-2133, stride prefetch at L1 and stream prefetch into
// L2/LLC.
func skylakeMem() memsys.Config {
	return memsys.Config{
		L1I:             cache.Config{Name: "L1I", SizeBytes: 64 << 10, Ways: 8, LineBytes: 64, Latency: 0, MSHRs: 8},
		L1D:             cache.Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64, Latency: 5, MSHRs: 10},
		L2:              cache.Config{Name: "L2", SizeBytes: 256 << 10, Ways: 16, LineBytes: 64, Latency: 15, MSHRs: 16},
		LLC:             cache.Config{Name: "LLC", SizeBytes: 8 << 20, Ways: 16, LineBytes: 64, Latency: 40, MSHRs: 32},
		Dram:            dram.DDR4_2133(),
		StridePCBits:    8,
		StrideDegree:    2,
		Streams:         16,
		StreamDepth:     4,
		MemReturnCycles: 20,
	}
}

// Skylake returns the paper's baseline core (Table II): 4-wide, 224-entry
// ROB, 97-entry IQ, 64/60 LQ/SQ, 8 execution ports, 8-wide retire.
func Skylake() Config {
	return Config{
		Name:                    "Skylake",
		FetchWidth:              4,
		FrontEndDepth:           5,
		FetchBufferSize:         32,
		BranchMispredictPenalty: 20,
		RenameWidth:             4,
		ROBSize:                 224,
		IQSize:                  97,
		LQSize:                  64,
		SQSize:                  60,
		RetireWidth:             8,
		ALUPorts:                4,
		LoadPorts:               2,
		StorePorts:              3,
		FPPorts:                 3,
		BranchPorts:             2,
		ALULat:                  1,
		IMulLat:                 3,
		IDivLat:                 20,
		FPLat:                   4,
		FPDivLat:                14,
		ForwardLat:              5,
		VPMispredictPenalty:     20,
		MemFlushPenalty:         20,
		SSITBits:                12,
		LFSTBits:                8,
		Mem:                     skylakeMem(),
	}
}

// Skylake2X returns the futuristic scaled-up baseline: 8-wide with all
// out-of-order resources and execution bandwidth doubled relative to
// Skylake (§V). The cache/memory system is unchanged, which is what exposes
// the larger core to data-dependence bottlenecks.
func Skylake2X() Config {
	c := Skylake()
	c.Name = "Skylake-2X"
	c.FetchWidth *= 2
	c.FetchBufferSize *= 2
	c.RenameWidth *= 2
	c.ROBSize *= 2
	c.IQSize *= 2
	c.LQSize *= 2
	c.SQSize *= 2
	c.RetireWidth *= 2
	c.ALUPorts *= 2
	c.LoadPorts *= 2
	c.StorePorts *= 2
	c.FPPorts *= 2
	c.BranchPorts *= 2
	// "All the execution resources and bandwidths are doubled" (§V):
	// miss-level parallelism scales with the core.
	c.Mem.L1D.MSHRs *= 2
	c.Mem.L2.MSHRs *= 2
	c.Mem.LLC.MSHRs *= 2
	return c
}

// latencyFor returns the issue→result latency class for non-memory ops.
func (c *Config) latencyFor(opClass int) uint64 {
	switch opClass {
	case classIMul:
		return c.IMulLat
	case classIDiv:
		return c.IDivLat
	case classFP:
		return c.FPLat
	case classFPDiv:
		return c.FPDivLat
	default:
		return c.ALULat
	}
}

// Port classes used by the issue stage.
const (
	classALU = iota
	classIMul
	classIDiv
	classFP
	classFPDiv
	classLoad
	classStore
	classBranch
	classNop
)
