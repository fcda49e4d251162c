package workload

import (
	"fmt"
	"slices"
	"sort"

	"fvp/internal/prog"
)

// Category is a Table-III workload family.
type Category string

// The paper's four workload categories.
const (
	ISPEC06 Category = "ISPEC06"
	FSPEC06 Category = "FSPEC06"
	SPEC17  Category = "SPEC17"
	Server  Category = "Server"
)

// Categories lists the families in the paper's reporting order.
func Categories() []Category { return []Category{FSPEC06, ISPEC06, Server, SPEC17} }

// Workload is one named entry of the study list.
type Workload struct {
	// Name is the paper's application name.
	Name string
	// Category is its Table-III family.
	Category Category
	// Build generates the kernel program. Each call returns a fresh
	// program; programs are immutable once built, so callers may cache.
	Build func() *prog.Program
}

type tmpl func(name string, p Params) *prog.Program

type def struct {
	name string
	cat  Category
	t    tmpl
	p    Params
}

// MB is a size helper.
const MB = 1 << 20

// defs is the full 60-entry study list. The paper's Table III names 53
// applications across the four categories and states the total is 60; the
// seven additional entries here are second traces of listed server
// applications (documented in DESIGN.md).
var defs = []def{
	// ------------------------------------------------- ISPEC06 (12)
	{"perlbench", ISPEC06, buildMixed, Params{Seed: 101, BgLoads: 14, ColdBytes: 16 * MB, WarmBytes: 2 * MB, WarmPtr2: true, ALUChain: 3, PadALU: 32, MissShift: 1, BranchEntropy: 0.3}},
	{"bzip2", ISPEC06, buildStream, Params{Seed: 102, StreamBytes: 8 * MB, Unroll: 2, ALUChain: 2}},
	{"gcc", ISPEC06, buildIndirect, Params{Seed: 103, BgLoads: 18, ColdBytes: 48 * MB, WarmBytes: 2 * MB, WarmPtr: true, ALUChain: 2, PadALU: 112, MissShift: 3, BranchEntropy: 0.2}},
	{"mcf", ISPEC06, buildChase, Params{Seed: 104, ColdBytes: 64 * MB, StableLoads: 2, ALUChain: 1}},
	{"h264ref", ISPEC06, buildCompute, Params{Seed: 105, WarmBytes: 1 * MB, ALUChain: 6, BranchEntropy: 0.1}},
	{"gobmk", ISPEC06, buildBranchy, Params{Seed: 106, ColdBytes: 16 * MB, StableLoads: 2, BranchEntropy: 0.4, ALUChain: 2}},
	{"hmmer", ISPEC06, buildCompute, Params{Seed: 107, WarmBytes: 2 * MB, ALUChain: 8, BranchEntropy: 0.05}},
	{"sjeng", ISPEC06, buildBranchy, Params{Seed: 108, BranchEntropy: 0.5, ALUChain: 3}},
	{"libquantum", ISPEC06, buildStream, Params{Seed: 109, StreamBytes: 16 * MB, Unroll: 3}},
	{"omnetpp", ISPEC06, buildIndirect, Params{Seed: 110, BgLoads: 18, ColdBytes: 32 * MB, WarmBytes: 2 * MB, WarmPtr2: true, ALUChain: 3, PadALU: 128, MissShift: 3, StoreEvery: 5, MutateEvery: 13, MutateSame: true}},
	{"astar", ISPEC06, buildIndirect, Params{Seed: 111, BgLoads: 18, ColdBytes: 24 * MB, WarmBytes: 2 * MB, WarmPtr2: true, ALUChain: 4, PadALU: 112, MissShift: 3, BranchEntropy: 0.3}},
	{"xalancbmk", ISPEC06, buildIndirect, Params{Seed: 112, BgLoads: 16, ColdBytes: 32 * MB, WarmBytes: 2 * MB, WarmPtr2: true, ALUChain: 2, PadALU: 48, MissShift: 2, Spill: true, SpillDist: 5}},

	// ------------------------------------------------- FSPEC06 (16)
	{"bwaves", FSPEC06, buildStream, Params{Seed: 201, StreamBytes: 16 * MB, Unroll: 3, FPChain: 1}},
	{"gamess", FSPEC06, buildCompute, Params{Seed: 202, WarmBytes: 1 * MB, ALUChain: 7}},
	{"milc", FSPEC06, buildStencil, Params{Seed: 203, WarmBytes: 4 * MB, ColdBytes: 32 * MB, StableLoads: 2, FPChain: 2}},
	{"zeusmp", FSPEC06, buildStencil, Params{Seed: 204, WarmBytes: 4 * MB, FPChain: 2}},
	{"soplex", FSPEC06, buildIndirect, Params{Seed: 205, BgLoads: 18, ColdBytes: 32 * MB, WarmBytes: 2 * MB, WarmPtr2: true, ALUChain: 2, PadALU: 96, MissShift: 3, FPChain: 1}},
	{"povray", FSPEC06, buildCompute, Params{Seed: 206, WarmBytes: 512 << 10, ALUChain: 5, BranchEntropy: 0.2}},
	{"calculix", FSPEC06, buildStencil, Params{Seed: 207, WarmBytes: 2 * MB, FPChain: 3}},
	{"gemsfdtd", FSPEC06, buildStencil, Params{Seed: 208, WarmBytes: 8 * MB, ColdBytes: 32 * MB, StableLoads: 2, FPChain: 2}},
	{"tonto", FSPEC06, buildCompute, Params{Seed: 209, WarmBytes: 1 * MB, ALUChain: 6, ColdBytes: 16 * MB, StableLoads: 1}},
	{"wrf", FSPEC06, buildStencil, Params{Seed: 210, WarmBytes: 4 * MB, FPChain: 2}},
	{"sphinx3", FSPEC06, buildIndirect, Params{Seed: 211, BgLoads: 18, ColdBytes: 16 * MB, WarmBytes: 2 * MB, WarmPtr2: true, ALUChain: 3, PadALU: 128, MissShift: 3, FPChain: 2}},
	{"gromacs", FSPEC06, buildStencil, Params{Seed: 212, WarmBytes: 1 * MB, FPChain: 3}},
	{"cactusADM", FSPEC06, buildStencil, Params{Seed: 213, WarmBytes: 8 * MB, FPChain: 4}},
	{"leslie3d", FSPEC06, buildStencil, Params{Seed: 214, WarmBytes: 4 * MB, FPChain: 2}},
	{"namd", FSPEC06, buildIndirect, Params{Seed: 215, BgLoads: 18, ColdBytes: 16 * MB, WarmBytes: 2 * MB, WarmPtr2: true, ALUChain: 4, PadALU: 128, MissShift: 3, FPChain: 2}},
	{"dealII", FSPEC06, buildIndirect, Params{Seed: 216, BgLoads: 16, ColdBytes: 16 * MB, WarmBytes: 2 * MB, WarmPtr2: true, ALUChain: 3, PadALU: 96, MissShift: 3, FPChain: 1, MutateEvery: 14, MutateSame: true}},

	// -------------------------------------------------- SPEC17 (16)
	{"nab", SPEC17, buildCompute, Params{Seed: 301, WarmBytes: 2 * MB, ALUChain: 5, BranchEntropy: 0.4}},
	{"cam4", SPEC17, buildIndirect, Params{Seed: 302, BgLoads: 14, ColdBytes: 24 * MB, WarmBytes: 1 * MB, WarmPtr: true, ALUChain: 2, PadALU: 48, MissShift: 2, FPChain: 2}},
	{"pop2", SPEC17, buildStencil, Params{Seed: 303, WarmBytes: 4 * MB, FPChain: 3}},
	{"roms", SPEC17, buildStream, Params{Seed: 304, StreamBytes: 16 * MB, Unroll: 2, FPChain: 1}},
	{"leela", SPEC17, buildBranchy, Params{Seed: 305, BranchEntropy: 0.8, ALUChain: 2}},
	{"cactuBSSN", SPEC17, buildStencil, Params{Seed: 306, WarmBytes: 8 * MB, FPChain: 3}},
	{"xz", SPEC17, buildBranchy, Params{Seed: 307, ColdBytes: 16 * MB, BranchEntropy: 0.7, ALUChain: 3}},
	{"gcc-17", SPEC17, buildBranchy, Params{Seed: 308, ColdBytes: 24 * MB, StableLoads: 1, BranchEntropy: 0.6, ALUChain: 2}},
	{"mcf-17", SPEC17, buildChase, Params{Seed: 309, ColdBytes: 48 * MB, StableLoads: 1, BranchEntropy: 0.5}},
	{"xalanc-17", SPEC17, buildBranchy, Params{Seed: 310, ColdBytes: 16 * MB, StableLoads: 1, BranchEntropy: 0.6}},
	{"exchange2", SPEC17, buildBranchy, Params{Seed: 311, BranchEntropy: 0.9, ALUChain: 3}},
	{"omnetpp-17", SPEC17, buildBranchy, Params{Seed: 312, ColdBytes: 32 * MB, StableLoads: 1, BranchEntropy: 0.55}},
	{"perlbench-17", SPEC17, buildMixed, Params{Seed: 313, ColdBytes: 16 * MB, StableLoads: 1, BranchEntropy: 0.7, ALUChain: 2}},
	{"bwaves-17", SPEC17, buildStream, Params{Seed: 314, StreamBytes: 16 * MB, Unroll: 3, FPChain: 1}},
	{"lbm", SPEC17, buildStream, Params{Seed: 315, StreamBytes: 32 * MB, Unroll: 2, FPChain: 2}},
	{"fotonik3d", SPEC17, buildStencil, Params{Seed: 316, WarmBytes: 8 * MB, FPChain: 2, BranchEntropy: 0.3}},

	// -------------------------------------------------- Server (16)
	{"lammps", Server, buildHash, Params{Seed: 401, BgLoads: 4, ColdBytes: 16 * MB, WarmBytes: 2 * MB, CodeBlocks: 4, SpillDist: 8, Unroll: 4}},
	{"hplinpack", Server, buildStream, Params{Seed: 402, StreamBytes: 32 * MB, Unroll: 3, FPChain: 2}},
	{"tpce", Server, buildHash, Params{Seed: 403, BgLoads: 6, ColdBytes: 48 * MB, WarmBytes: 4 * MB, CodeBlocks: 4, SpillDist: 14, Unroll: 40, Spill: true}},
	{"spark", Server, buildHash, Params{Seed: 404, BgLoads: 6, ColdBytes: 32 * MB, WarmBytes: 4 * MB, CodeBlocks: 4, SpillDist: 10, Unroll: 16}},
	{"cassandra", Server, buildHash, Params{Seed: 405, BgLoads: 6, ColdBytes: 32 * MB, WarmBytes: 2 * MB, CodeBlocks: 4, SpillDist: 14, Unroll: 40, Spill: true}},
	{"specjbb", Server, buildHash, Params{Seed: 406, BgLoads: 6, ColdBytes: 24 * MB, WarmBytes: 4 * MB, CodeBlocks: 4, SpillDist: 10, Unroll: 12}},
	{"specjenterprise", Server, buildHash, Params{Seed: 407, BgLoads: 6, ColdBytes: 32 * MB, WarmBytes: 4 * MB, CodeBlocks: 4, SpillDist: 14, Unroll: 40, Spill: true}},
	{"hadoop", Server, buildHash, Params{Seed: 408, BgLoads: 6, ColdBytes: 64 * MB, WarmBytes: 8 * MB, CodeBlocks: 4, SpillDist: 14, Unroll: 40, Spill: true}},
	{"specpower", Server, buildHash, Params{Seed: 409, BgLoads: 4, ColdBytes: 16 * MB, WarmBytes: 2 * MB, CodeBlocks: 4, SpillDist: 8, Unroll: 8}},
	{"tpce-mix", Server, buildHash, Params{Seed: 410, BgLoads: 6, ColdBytes: 48 * MB, WarmBytes: 8 * MB, CodeBlocks: 4, SpillDist: 14, Unroll: 40, Spill: true}},
	{"spark-sql", Server, buildHash, Params{Seed: 411, BgLoads: 6, ColdBytes: 32 * MB, WarmBytes: 4 * MB, CodeBlocks: 4, SpillDist: 10, Unroll: 12}},
	{"cassandra-write", Server, buildHash, Params{Seed: 412, BgLoads: 6, ColdBytes: 32 * MB, WarmBytes: 2 * MB, CodeBlocks: 4, SpillDist: 14, Unroll: 40, Spill: true}},
	{"hadoop-sort", Server, buildHash, Params{Seed: 413, BgLoads: 6, ColdBytes: 64 * MB, WarmBytes: 8 * MB, CodeBlocks: 4, SpillDist: 10, Unroll: 20}},
	{"specjbb-crit", Server, buildHash, Params{Seed: 414, BgLoads: 6, ColdBytes: 24 * MB, WarmBytes: 4 * MB, CodeBlocks: 4, SpillDist: 14, Unroll: 40, Spill: true}},
	{"specjent-web", Server, buildHash, Params{Seed: 415, BgLoads: 6, ColdBytes: 32 * MB, WarmBytes: 4 * MB, CodeBlocks: 4, SpillDist: 14, Unroll: 40, Spill: true}},
	{"specpower-ssj2", Server, buildHash, Params{Seed: 416, BgLoads: 4, ColdBytes: 16 * MB, WarmBytes: 2 * MB, CodeBlocks: 4, SpillDist: 8, Unroll: 8}},
}

// table is the study list as Workloads, built once: All copies it and
// ByName looks names up in it.
var table = func() []Workload {
	out := make([]Workload, len(defs))
	for i, d := range defs {
		out[i] = Workload{
			Name:     d.name,
			Category: d.cat,
			Build:    func() *prog.Program { return d.t(d.name, d.p) },
		}
	}
	return out
}()

// All returns the 60-workload study list in definition order.
func All() []Workload { return slices.Clone(table) }

// GoldenMatrix returns the names of the 13-workload golden-stat matrix: a
// representative slice of the study list in which every builder template
// (indirect, chase, compute, branchy, stream, stencil, hash, mixed) and
// every Table-III category appears, with double coverage of the DRAM-bound
// pointer chasers (mcf, mcf-17) where idle-cycle elision skips most. The
// cycle-exact snapshot tests (internal/ooo/golden_test.go) and the
// benchmark's golden-workload specs both iterate this one list.
func GoldenMatrix() []string {
	return []string{
		"omnetpp", "mcf", "gcc", "hmmer", "sjeng", "libquantum",
		"milc", "sphinx3", "leela", "lbm", "cassandra", "hadoop",
		"mcf-17",
	}
}

// ByCategory returns the workloads of one family.
func ByCategory(c Category) []Workload {
	var out []Workload
	for _, w := range table {
		if w.Category == c {
			out = append(out, w)
		}
	}
	return out
}

// ByName finds a workload by its name.
func ByName(name string) (Workload, bool) {
	for _, w := range table {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Names returns all workload names, sorted.
func Names() []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	sort.Strings(out)
	return out
}

// Validate builds every workload program and checks it, returning the first
// error (used by tests and cmd/tracegen).
func Validate() error {
	for _, w := range All() {
		p := w.Build()
		if err := p.Validate(); err != nil {
			return fmt.Errorf("workload %s: %w", w.Name, err)
		}
	}
	return nil
}
