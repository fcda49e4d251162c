package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"fvp"
	"fvp/internal/simd"
	"fvp/internal/workload"
)

// scale selects the input sizes: "full" is the benchmark proper, "tiny"
// the same workloads shrunk to a few seconds for the smoke test.
type scale string

const (
	scaleFull scale = "full"
	scaleTiny scale = "tiny"
)

// input is one operation's input: a simulation spec, and the POST body
// that submits it to fvpd.
type input struct {
	// key names the spec in the expected-output tables.
	key  string
	spec fvp.RunSpec
	body []byte
	// insts is what the sweeps credit a run with: its warmup and measured
	// region, or for a sampled run the whole region it estimates.
	insts uint64
}

// reply is what an op returned, before it is decoded and checked: the
// library's metrics for the sweeps, the HTTP response body for fvpd.
type reply struct {
	metrics fvp.Metrics
	body    []byte
}

// system is a set-up system under test.
type system struct {
	// clients is how many closed-loop clients drive it.
	clients int
	// do performs one op. Its duration is the op's latency.
	do func(ctx context.Context, in *input) (reply, error)
	// check decodes a reply and reports whether the digest of the metrics
	// it carries (see digestOf) is want, with their IPC where the reply
	// carries it. It is not part of the op's latency.
	check func(r reply, want string) (ok bool, ipc float64, err error)
	// appends reports the JobStore appends made so far, over all nodes.
	appends func() uint64
	close   func()
}

// benchWorkload is one benchmark workload.
type benchWorkload struct {
	name string
	// tail is the quantile reported as latency_tail_ms: the highest of
	// p90/p95/p99 that leaves at least ten ops beyond it in a run.
	tail float64
	// inputs lists the inputs in canonical order: the order of the
	// expected-output digest. It is a run of blocks (see blockOf).
	inputs func(scale) []input
	// group keeps runs of that many consecutive canonical inputs together
	// when the seed permutes the order (a baseline/FVP pair).
	group int
	// unique ends the timed phase when the inputs run out instead of
	// cycling through them again, so no input repeats.
	unique bool
	// sweep marks a library sweep of baseline/FVP pairs, which also
	// reports its simulation rate and geomean FVP speedups.
	sweep bool
	// start sets the system up; ins is the permuted input list.
	start func(ctx context.Context, e *env, ins []input) (*system, error)
}

// env is what a workload's set-up may use.
type env struct {
	// workDir is a fresh directory for this set-up's stores.
	workDir string
	// tr records spans; nil when the run is untraced.
	tr *tracer
	// expected holds the expected digest of every input.
	expected map[string]string
}

var workloads = []*benchWorkload{
	{
		name: "paper-sweep", tail: 0.95, group: 2, sweep: true,
		inputs: paperInputs, start: startSweep,
	},
	{
		name: "sampled-sweep", tail: 0.90, group: 2, sweep: true,
		inputs: sampledInputs, start: startSweep,
	},
	{
		name: "svc-unique", tail: 0.99, group: 1, unique: true,
		inputs: uniqueInputs, start: startUnique,
	},
	{
		name: "svc-cached", tail: 0.99, group: 1,
		inputs: cachedInputs, start: startCached,
	},
}

func workloadByName(name string) (*benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// blockOf is the length of one unit of a workload's mix: one input per
// workload, machine and predictor. Canonical orders keep each block
// contiguous, and a run measures whole blocks.
func blockOf(ins []input) int {
	seen := map[string]bool{}
	for _, in := range ins {
		seen[mixOf(in.spec)] = true
	}
	return len(seen)
}

func mixOf(s fvp.RunSpec) string {
	n := s.Normalized()
	return n.Workload + "/" + string(n.Machine) + "/" + string(n.Predictor)
}

// specKey renders the readable key of a spec.
func specKey(s fvp.RunSpec) string {
	n := s.Normalized()
	k := fmt.Sprintf("%s/%s/%s/%d/%d", n.Workload, n.Machine, n.Predictor, n.WarmupInsts, n.MeasureInsts)
	if n.SampleUnits != 0 {
		k += fmt.Sprintf("/%dx%d/w%d/seed%d", n.SampleUnits, n.SampleUnitInsts, n.SampleWarmupInsts, n.SampleSeed)
	}
	return k
}

func newInput(s fvp.RunSpec) input {
	body, err := json.Marshal(simd.RunRequest{RunSpec: s})
	if err != nil {
		panic(err) // a RunSpec holds only plain numbers and strings
	}
	return input{key: specKey(s), spec: s, body: body}
}

var arms = []fvp.Predictor{fvp.PredNone, fvp.PredFVP}

// paperInputs is the paper's Fig 6/7 sweep: every workload with and
// without FVP on both machines, at a quarter of the repository's default
// run length (25k detailed warmup, 75k measured) so that a whole sweep
// fits twice in a run. The tiny scale is 3 workloads at 2k/5k.
func paperInputs(sc scale) []input {
	names := allWorkloads()
	var warm, measure uint64 = 25_000, 75_000
	if sc == scaleTiny {
		names, warm, measure = []string{"omnetpp", "mcf", "lbm"}, 2000, 5000
	}
	var out []input
	for _, m := range []fvp.Machine{fvp.Skylake, fvp.Skylake2X} {
		for _, w := range names {
			for _, p := range arms {
				in := newInput(fvp.RunSpec{Workload: w, Machine: m, Predictor: p,
					WarmupInsts: warm, MeasureInsts: measure})
				in.insts = warm + measure
				out = append(out, in)
			}
		}
	}
	return out
}

// sampledInputs samples a 2M-instruction region of each golden-matrix
// workload with 16 units of 2000 instructions, each warmed functionally
// over 50k instructions. RegionWorkers 1 keeps each run on one goroutine,
// so the two clients are the only simulation goroutines.
func sampledInputs(sc scale) []input {
	names := workload.GoldenMatrix()
	var measure, unitWarm uint64 = 2_000_000, 50_000
	units := 16
	if sc == scaleTiny {
		names, measure, unitWarm, units = []string{"omnetpp", "lbm"}, 200_000, 10_000, 4
	}
	var out []input
	for _, w := range names {
		for _, p := range arms {
			in := newInput(fvp.RunSpec{Workload: w, Machine: fvp.Skylake, Predictor: p,
				MeasureInsts: measure, SampleUnits: units, SampleUnitInsts: 2000,
				SampleWarmupInsts: unitWarm, SampleSeed: 1})
			in.spec.RegionWorkers = 1
			in.insts = in.spec.Normalized().WarmupInsts + measure
			out = append(out, in)
		}
	}
	return out
}

// shortSpecs are the service workloads' specs: short runs of the given
// workloads, made distinct by their warmup length. Each warmup length is
// one block: one spec per workload and arm.
func shortSpecs(names []string, warmups int) []input {
	var out []input
	for i := 0; i < warmups; i++ {
		for _, w := range names {
			for _, p := range arms {
				out = append(out, newInput(fvp.RunSpec{Workload: w, Machine: fvp.Skylake, Predictor: p,
					WarmupInsts: uint64(2000 + i), MeasureInsts: 5000}))
			}
		}
	}
	return out
}

// uniqueInputs has over twice the specs a run submits on the reference
// host; a faster program ends the timed phase early rather than repeat a
// spec.
func uniqueInputs(sc scale) []input {
	if sc == scaleTiny {
		return shortSpecs([]string{"omnetpp", "lbm"}, 5)
	}
	return shortSpecs(workload.GoldenMatrix(), 300)
}

// cachedInputs are the specs svc-cached pre-runs and then re-submits; they
// are the first warmup lengths of svc-unique's specs.
func cachedInputs(sc scale) []input {
	if sc == scaleTiny {
		return shortSpecs([]string{"omnetpp", "lbm"}, 3)
	}
	return shortSpecs(workload.GoldenMatrix(), 4)
}

func allWorkloads() []string {
	var names []string
	for _, w := range fvp.Workloads() {
		names = append(names, w.Name)
	}
	return names
}

// permute orders the inputs for a seed: it shuffles the blocks, and inside
// each block the groups of w.group consecutive canonical inputs. The seed
// changes the order only, never the set, so the expected outputs hold for
// every seed and every block keeps its mix.
func (w *benchWorkload) permute(ins []input, seed uint64) []input {
	block := blockOf(ins)
	rng := rand.New(rand.NewPCG(seed, 0x66767062656e6368))
	out := make([]input, 0, len(ins))
	for _, b := range rng.Perm(len(ins) / block) {
		blk := ins[b*block : (b+1)*block]
		for _, g := range rng.Perm(block / w.group) {
			out = append(out, blk[g*w.group:(g+1)*w.group]...)
		}
	}
	return out
}
