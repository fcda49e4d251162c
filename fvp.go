// Package fvp is the public façade of the Focused Value Prediction
// reproduction (Bandishte et al., ISCA 2020). It exposes:
//
//   - the 60-workload study list (Table III) as named, generated kernels,
//   - the two simulated machines (Skylake and the scaled-up Skylake-2X,
//     Table II),
//   - the predictor zoo: FVP itself (≈1.2 KB), Memory Renaming and the
//     DLVP+EVES Composite predictor at 8 KB / 1 KB budgets, plus FVP
//     ablations (register-only, memory-only, criticality policies),
//   - Run/Compare entry points returning IPC, coverage and accuracy, and
//   - the per-figure experiment drivers that regenerate every table and
//     figure of the paper's evaluation section.
//
// Quick start:
//
//	m, _ := fvp.Run(fvp.RunSpec{Workload: "omnetpp", Predictor: fvp.PredFVP})
//	b, _ := fvp.Run(fvp.RunSpec{Workload: "omnetpp"})
//	fmt.Printf("speedup %.1f%%\n", (m.IPC/b.IPC-1)*100)
package fvp

import (
	"context"
	"fmt"
	"io"

	"fvp/internal/core"
	"fvp/internal/harness"
	"fvp/internal/ooo"
	"fvp/internal/prog"
	"fvp/internal/sample"
	"fvp/internal/suggest"
	"fvp/internal/telemetry"
	"fvp/internal/vp"
	"fvp/internal/workload"
)

// IntervalMetrics is one completed telemetry sampling interval: counters are
// deltas over the interval, occupancies point readings at its end. See
// telemetry.Sample for field documentation; the JSON form is the fvpsim
// -intervals schema.
type IntervalMetrics = telemetry.Sample

// Observer receives the interval time series of a run. Attach one via
// RunSpec.Observer; it costs strictly nothing when nil (the cycle loop's
// check is a single always-false compare). OnInterval runs on the
// simulating goroutine and must not block.
type Observer interface {
	OnInterval(IntervalMetrics)
}

// DefaultObserverInterval is the sampling period used when
// RunSpec.ObserverInterval is 0.
const DefaultObserverInterval = ooo.DefaultObserverInterval

// PipeTrace captures bounded per-instruction pipeline timelines and exports
// Chrome trace-event JSON (load the file at ui.perfetto.dev). Attach via
// RunSpec.Tracer, then call WriteChromeTrace after the run.
type PipeTrace = telemetry.PipeTrace

// NewPipeTrace returns a pipeline tracer capturing the first maxInsts
// distinct instructions of the measured region (0 selects
// telemetry.DefaultTraceInsts).
func NewPipeTrace(maxInsts int) *PipeTrace { return telemetry.NewPipeTrace(maxInsts) }

// UnknownNameError reports a RunSpec field that names no known workload,
// machine, or predictor, with the closest valid name when one is
// plausible. Callers that translate errors into protocol responses (the
// fvpd service maps it to HTTP 400) can detect it with errors.As.
type UnknownNameError struct {
	// Kind is "workload", "machine", "predictor", or "warmup mode".
	Kind string
	// Name is the value that failed to resolve.
	Name string
	// Suggestion is the closest valid name, or "" if nothing is close.
	Suggestion string
}

func (e *UnknownNameError) Error() string {
	if e.Suggestion != "" {
		return fmt.Sprintf("fvp: no such %s %q (did you mean %q?)", e.Kind, e.Name, e.Suggestion)
	}
	return fmt.Sprintf("fvp: no such %s %q", e.Kind, e.Name)
}

// unknownName builds the error, filling in the closest-candidate hint.
func unknownName(kind, name string, candidates []string) error {
	s, _ := suggest.Closest(name, candidates)
	return &UnknownNameError{Kind: kind, Name: name, Suggestion: s}
}

func workloadNames() []string {
	ws := workload.All()
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Name
	}
	return out
}

func predictorNames() []string {
	out := make([]string, len(predictors))
	for i, p := range predictors {
		out[i] = string(p.name)
	}
	return out
}

// Machine selects a simulated core configuration.
type Machine string

// The two baselines of the paper (§V).
const (
	// Skylake is the 4-wide, 224-entry-ROB baseline (Table II).
	Skylake Machine = "skylake"
	// Skylake2X doubles every out-of-order resource and bandwidth.
	Skylake2X Machine = "skylake2x"
)

// coreConfig maps a Machine to the timing-model configuration.
func coreConfig(m Machine) (ooo.Config, error) {
	switch m {
	case Skylake, "":
		return ooo.Skylake(), nil
	case Skylake2X:
		return ooo.Skylake2X(), nil
	}
	return ooo.Config{}, unknownName("machine", string(m), []string{string(Skylake), string(Skylake2X)})
}

// Predictor names a value-predictor configuration.
type Predictor string

// Predictor configurations evaluated in the paper.
const (
	// PredNone is the no-value-prediction baseline.
	PredNone Predictor = "none"
	// PredFVP is Focused Value Prediction at its paper sizing (~1.2 KB).
	PredFVP Predictor = "fvp"
	// PredFVPRegOnly disables FVP's Memory-Renaming component (Fig 13).
	PredFVPRegOnly Predictor = "fvp-reg-only"
	// PredFVPMemOnly keeps only the Memory-Renaming component (Fig 13).
	PredFVPMemOnly Predictor = "fvp-mem-only"
	// PredFVPL1Miss uses the FVP-L1-Miss criticality policy (Fig 12).
	PredFVPL1Miss Predictor = "fvp-l1-miss"
	// PredFVPL1MissOnly predicts only L1-missing loads (Fig 12).
	PredFVPL1MissOnly Predictor = "fvp-l1-miss-only"
	// PredFVPOracle uses graph-buffering oracle criticality (Fig 12).
	PredFVPOracle Predictor = "fvp-oracle"
	// PredMR8KB is standalone Memory Renaming at ≈8 KB (Figs 10/11).
	PredMR8KB Predictor = "mr-8kb"
	// PredMR1KB is standalone Memory Renaming at ≈1 KB.
	PredMR1KB Predictor = "mr-1kb"
	// PredComposite8KB is the DLVP+EVES Composite predictor at ≈8 KB.
	PredComposite8KB Predictor = "composite-8kb"
	// PredComposite1KB is the Composite predictor at ≈1 KB.
	PredComposite1KB Predictor = "composite-1kb"
	// PredLVP is a plain tagged last-value predictor (baseline study).
	PredLVP Predictor = "lvp"
	// PredStride is the classic stride value predictor (§VI-B note).
	PredStride Predictor = "stride"
	// PredVTAGE is a standalone VTAGE (Perais & Seznec, cited prior art).
	PredVTAGE Predictor = "vtage"
	// PredEVES is an EVES-style VTAGE+E-Stride predictor (cited prior art).
	PredEVES Predictor = "eves"
)

// predictors is every named configuration in listing order, with the
// harness spec that builds it.
var predictors = [...]struct {
	name Predictor
	spec harness.Spec
}{
	{PredNone, harness.SpecNone},
	{PredFVP, harness.SpecFVP},
	{PredFVPRegOnly, harness.SpecFVPRegOnly},
	{PredFVPMemOnly, harness.SpecFVPMemOnly},
	{PredFVPL1Miss, harness.SpecFVPL1Miss},
	{PredFVPL1MissOnly, harness.SpecFVPL1MissOnl},
	{PredFVPOracle, harness.SpecFVPOracle},
	{PredMR8KB, harness.SpecMR8KB},
	{PredMR1KB, harness.SpecMR1KB},
	{PredComposite8KB, harness.SpecComp8KB},
	{PredComposite1KB, harness.SpecComp1KB},
	{PredLVP, harness.SpecLVP},
	{PredStride, harness.SpecStride},
	{PredVTAGE, harness.SpecVTAGE},
	{PredEVES, harness.SpecEVES},
}

// Predictors lists every named configuration.
func Predictors() []Predictor {
	out := make([]Predictor, len(predictors))
	for i, p := range predictors {
		out[i] = p.name
	}
	return out
}

// predFactory resolves a predictor name; the baseline ("" or PredNone)
// runs without a predictor and gets a nil factory.
func predFactory(p Predictor) (harness.PredFactory, error) {
	if p == "" {
		return nil, nil
	}
	for _, e := range predictors {
		if e.name != p {
			continue
		}
		if e.spec == harness.SpecNone {
			return nil, nil
		}
		return harness.Factory(e.spec), nil
	}
	return nil, unknownName("predictor", string(p), predictorNames())
}

// StorageBytes returns the state budget of a predictor configuration in
// bytes (0 for the baseline).
func StorageBytes(p Predictor) (int, error) {
	pf, err := predFactory(p)
	if err != nil {
		return 0, err
	}
	if pf == nil {
		return 0, nil
	}
	return pf().StorageBits() / 8, nil
}

// WorkloadInfo describes one study-list entry.
type WorkloadInfo struct {
	// Name is the paper's application name ("omnetpp", "cassandra", ...).
	Name string
	// Category is the Table-III family.
	Category string
}

// Workloads returns the 60-entry study list (Table III).
func Workloads() []WorkloadInfo {
	ws := workload.All()
	out := make([]WorkloadInfo, len(ws))
	for i, w := range ws {
		out[i] = WorkloadInfo{Name: w.Name, Category: string(w.Category)}
	}
	return out
}

// RunSpec describes one simulation.
type RunSpec struct {
	// Workload is a study-list name (see Workloads).
	Workload string `json:"workload"`
	// Machine defaults to Skylake.
	Machine Machine `json:"machine,omitempty"`
	// Predictor defaults to PredNone (the baseline).
	Predictor Predictor `json:"predictor,omitempty"`
	// WarmupInsts and MeasureInsts default to 100k/300k.
	WarmupInsts  uint64 `json:"warmup_insts,omitempty"`
	MeasureInsts uint64 `json:"measure_insts,omitempty"`
	// WarmupMode selects "detailed" (default) or "functional" warmup —
	// functional fast-forwards the warmup region through the machine's
	// warming taps at O(instructions) cost (see DESIGN.md).
	WarmupMode string `json:"warmup_mode,omitempty"`
	// Regions splits the measured region into this many checkpoint-
	// restored slices simulated in parallel and stitched (default 1).
	Regions int `json:"regions,omitempty"`
	// RegionWorkers bounds how many regions simulate concurrently
	// (0 = GOMAXPROCS). A local resource knob: it never changes results,
	// so it is not part of the wire schema or the result-cache key.
	// Sampled runs reuse it to bound concurrent sample units.
	RegionWorkers int `json:"-"`

	// SampleUnits, when set (or when SampleTargetCI is set), switches the
	// run to SMARTS-style sampled simulation: only SampleUnits systematic
	// sample units of the measured region are simulated in detail, the
	// rest is fast-forwarded, and Metrics carries a confidence interval
	// for the population estimate. Minimum 2 (a single unit has no
	// variance estimate); 0 with SampleTargetCI set starts auto-tuning at
	// the default unit count.
	SampleUnits int `json:"sample_units,omitempty"`
	// SampleUnitInsts is the detailed length of each sample unit
	// (0 = 1000 instructions).
	SampleUnitInsts uint64 `json:"sample_unit_insts,omitempty"`
	// SampleWarmupInsts is the per-unit functional warmup window
	// (0 = 200k instructions — see DESIGN.md on why units need
	// long-history warming).
	SampleWarmupInsts uint64 `json:"sample_warmup_insts,omitempty"`
	// SampleTargetCI, when > 0, auto-tunes the unit count: it doubles
	// until the IPC estimate's relative 95% CI half-width is at most this
	// (e.g. 0.02 for ±2%) or SampleMaxUnits is reached.
	SampleTargetCI float64 `json:"sample_target_ci,omitempty"`
	// SampleMaxUnits caps auto-tune growth (0 = 128).
	SampleMaxUnits int `json:"sample_max_units,omitempty"`
	// SampleSeed selects the systematic phase offset; results are
	// deterministic for a fixed seed.
	SampleSeed uint64 `json:"sample_seed,omitempty"`

	// Observer, if non-nil, streams interval metrics from the measured
	// region (attached after warmup). It is a local hook, not part of the
	// wire schema or the result-cache key, and never perturbs timing.
	Observer Observer `json:"-"`
	// ObserverInterval is the sampling period in cycles; 0 selects
	// DefaultObserverInterval.
	ObserverInterval uint64 `json:"-"`
	// Tracer, if non-nil, records per-instruction pipeline timelines over
	// the measured region for Chrome-trace export. Local hook, like
	// Observer.
	Tracer *PipeTrace `json:"-"`
}

// Normalized returns the spec with every default made explicit, so two
// specs that describe the same simulation compare (and hash) equal. This
// is what the fvpd result cache keys on.
func (s RunSpec) Normalized() RunSpec {
	if s.Machine == "" {
		s.Machine = Skylake
	}
	if s.Predictor == "" {
		s.Predictor = PredNone
	}
	def := harness.DefaultOptions()
	if s.WarmupInsts == 0 {
		s.WarmupInsts = def.WarmupInsts
	}
	if s.MeasureInsts == 0 {
		s.MeasureInsts = def.MeasureInsts
	}
	if s.WarmupMode == "" {
		s.WarmupMode = string(harness.WarmupDetailed)
	}
	if s.Regions < 1 {
		s.Regions = 1
	}
	if s.sampled() {
		if s.SampleUnits == 0 {
			s.SampleUnits = sample.DefaultUnits
		}
		if s.SampleUnitInsts == 0 {
			s.SampleUnitInsts = sample.DefaultUnitInsts
		}
		if s.SampleWarmupInsts == 0 {
			s.SampleWarmupInsts = harness.DefaultSampleWarmupInsts
		}
		if s.SampleMaxUnits == 0 {
			s.SampleMaxUnits = sample.DefaultMaxUnits
		}
	}
	return s
}

// Budget caps enforced by Validate. A single simulated instruction costs
// real time on the order of 100 ns, so a request at the cap is minutes of
// work — anything beyond it is almost certainly a unit mistake (cycles or
// nanoseconds pasted into an instruction-count field), and services should
// reject it before queueing.
const (
	// MaxWarmupInsts caps RunSpec.WarmupInsts.
	MaxWarmupInsts = 1_000_000_000
	// MaxMeasureInsts caps RunSpec.MeasureInsts.
	MaxMeasureInsts = 1_000_000_000
	// MaxRegions caps RunSpec.Regions: beyond this, per-region warmup
	// overhead dominates and the stitched result stops resembling the
	// monolithic run.
	MaxRegions = 64
	// MaxSampleUnits caps RunSpec.SampleUnits and SampleMaxUnits: beyond
	// this, per-unit warmup work dwarfs the detailed savings.
	MaxSampleUnits = 1024
)

// WarmupModes lists the accepted RunSpec.WarmupMode values, for CLIs and
// service-side validation messages.
func WarmupModes() []string { return harness.WarmupModes() }

// InvalidSpecError reports a RunSpec field whose value is out of range —
// names resolve, but the requested work is malformed or beyond the
// service budget caps. The fvpd service maps it to HTTP 400; detect it
// with errors.As.
type InvalidSpecError struct {
	// Field is the spec field's JSON name ("warmup_insts", ...).
	Field string
	// Value is the rejected value and Limit the cap it exceeded (0 when
	// the problem isn't a cap).
	Value, Limit uint64
	// Reason says what's wrong, for human eyes.
	Reason string
}

func (e *InvalidSpecError) Error() string {
	if e.Limit > 0 {
		return fmt.Sprintf("fvp: invalid spec: %s=%d exceeds limit %d", e.Field, e.Value, e.Limit)
	}
	return fmt.Sprintf("fvp: invalid spec: %s: %s", e.Field, e.Reason)
}

// Validate resolves every name in the spec without simulating, returning
// an *UnknownNameError (with a did-you-mean hint) for the first field
// that doesn't resolve, or an *InvalidSpecError for a field whose value
// is out of range. Services use it to reject bad requests before queueing
// work. The façade checks only names and budget caps; which run shapes
// are valid is harness.Options.Validate's rule, reported here under the
// spec's wire field names.
func Validate(spec RunSpec) error {
	if _, ok := workload.ByName(spec.Workload); !ok {
		return unknownName("workload", spec.Workload, workloadNames())
	}
	if _, err := coreConfig(spec.Machine); err != nil {
		return err
	}
	if _, err := predFactory(spec.Predictor); err != nil {
		return err
	}
	// The caps read the options a run would get, so an unsampled spec's
	// sample_* fields are ignored. Negative counts are malformed rather
	// than over budget: they pass as 0 and harness names the reason.
	opt := spec.options()
	caps := [...]struct {
		field        string
		value, limit uint64
	}{
		{"warmup_insts", opt.WarmupInsts, MaxWarmupInsts},
		{"measure_insts", opt.MeasureInsts, MaxMeasureInsts},
		{"regions", count(opt.Regions), MaxRegions},
		{"sample_units", count(opt.Sampling.Units), MaxSampleUnits},
		{"sample_max_units", count(opt.Sampling.MaxUnits), MaxSampleUnits},
		{"sample_unit_insts", opt.Sampling.UnitInsts, MaxMeasureInsts},
		{"sample_warmup_insts", opt.Sampling.WarmupInsts, MaxWarmupInsts},
	}
	for _, c := range caps {
		if c.value > c.limit {
			return &InvalidSpecError{Field: c.field, Value: c.value, Limit: c.limit}
		}
	}
	err := opt.Validate()
	ie, ok := err.(*harness.InvalidOptionsError)
	if !ok {
		return err
	}
	if ie.Field == "WarmupMode" {
		return unknownName("warmup mode", spec.WarmupMode, harness.WarmupModes())
	}
	field, ok := wireFields[ie.Field]
	if !ok {
		field = ie.Field
	}
	return &InvalidSpecError{Field: field, Value: ie.Value, Limit: ie.Limit, Reason: ie.Reason}
}

// wireFields maps the harness.Options fields a RunSpec sets to their wire
// names. A rule on the sampling plan as a whole is reported on
// sample_units, the field that turns sampling on.
var wireFields = map[string]string{
	"WarmupInsts":       "warmup_insts",
	"MeasureInsts":      "measure_insts",
	"Regions":           "regions",
	"Sampling":          "sample_units",
	"Sampling.Units":    "sample_units",
	"Sampling.TargetCI": "sample_target_ci",
	"Sampling.MaxUnits": "sample_max_units",
}

// count reads a signed count against an unsigned cap, negatives as 0.
func count(n int) uint64 { return uint64(max(n, 0)) }

// sampled reports whether the spec asks for a sampled run.
func (s RunSpec) sampled() bool { return s.SampleUnits != 0 || s.SampleTargetCI != 0 }

// Metrics is the measured outcome of a run. The JSON field names are the
// wire schema of the fvpd service and fvpsim -json.
type Metrics struct {
	// IPC is retired instructions per cycle over the measured region.
	IPC float64 `json:"ipc"`
	// Coverage is predicted loads / all loads (the paper's metric).
	Coverage float64 `json:"coverage"`
	// Accuracy is correct / validated predictions.
	Accuracy float64 `json:"accuracy"`
	// Cycles and Insts cover the measured region.
	Cycles uint64 `json:"cycles"`
	Insts  uint64 `json:"insts"`
	// Loads is the retired load count.
	Loads uint64 `json:"loads"`
	// VPFlushes counts pipeline flushes from value mispredictions.
	VPFlushes uint64 `json:"vp_flushes"`
	// BranchMispredicts counts resolved front-end mispredictions.
	BranchMispredicts uint64 `json:"branch_mispredicts"`
	// Forwards counts store→load forwarding events in the LSQ.
	Forwards uint64 `json:"forwards"`
	// LoadsByLevel counts demand loads served by L1/L2/LLC/memory.
	LoadsByLevel [4]uint64 `json:"loads_by_level"`
	// CycleBreakdown attributes every cycle to a top-down bucket; see
	// CycleBucketNames for labels. Buckets sum to Cycles.
	CycleBreakdown [9]uint64 `json:"cycle_breakdown"`
	// SkippedCycles counts cycles the simulator clock-jumped instead of
	// ticking, in SkipEvents jumps — a simulator-speed meter, not a machine
	// property: skipped cycles are fully accounted in Cycles and
	// CycleBreakdown, and both fields are 0 when idle-cycle elision is off
	// (ooo.Config.DisableIdleElision).
	SkippedCycles uint64 `json:"skipped_cycles"`
	SkipEvents    uint64 `json:"skip_events"`
	// WarmupMode records which warmup path produced the run ("detailed"
	// or "functional").
	WarmupMode string `json:"warmup_mode,omitempty"`
	// FFInsts counts functionally fast-forwarded instructions (functional
	// warmup plus the checkpoint scan of a region-parallel run) and
	// FFInstsPerSec their wall-clock throughput — the simulator-speed
	// meters of the fast-forward path. Both 0 for purely detailed runs.
	FFInsts       uint64  `json:"ff_insts,omitempty"`
	FFInstsPerSec float64 `json:"ff_insts_per_sec,omitempty"`
	// Sampling is the statistical summary of a sampled run (nil for
	// full-detail runs). For sampled runs the point metrics above are the
	// instruction-weighted stitch of the sample units.
	Sampling *SamplingMetrics `json:"sampling,omitempty"`
}

// SampleEstimate is the population estimate of one metric from per-unit
// observations: the mean, its standard error, and the 95% confidence
// interval half-width in absolute and relative terms.
type SampleEstimate struct {
	Mean   float64 `json:"mean"`
	StdErr float64 `json:"stderr"`
	CIHalf float64 `json:"ci_half"`
	RelCI  float64 `json:"rel_ci"`
}

// SamplingMetrics summarizes a sampled run for the wire schema: the final
// plan shape, the auto-tune outcome, and per-metric confidence intervals.
type SamplingMetrics struct {
	// Units is the final sample-unit count, UnitInsts the detailed length
	// of each, WarmupInsts the per-unit warmup window, Seed the systematic
	// phase seed.
	Units       int    `json:"units"`
	UnitInsts   uint64 `json:"unit_insts"`
	WarmupInsts uint64 `json:"warmup_insts"`
	Seed        uint64 `json:"seed"`
	// TargetCI echoes the auto-tune target (0 = fixed unit count); Rounds
	// counts auto-tune iterations; Converged is false only when the unit
	// cap was hit with the IPC interval still wider than TargetCI.
	TargetCI  float64 `json:"target_ci,omitempty"`
	Rounds    int     `json:"rounds"`
	Converged bool    `json:"converged"`
	// SampledInsts counts instructions simulated in detail across units.
	SampledInsts uint64 `json:"sampled_insts"`
	// IPC, Coverage and Accuracy are the per-unit population estimates.
	IPC      SampleEstimate `json:"ipc"`
	Coverage SampleEstimate `json:"coverage"`
	Accuracy SampleEstimate `json:"accuracy"`
}

// CycleBucketNames labels Metrics.CycleBreakdown.
func CycleBucketNames() [9]string { return ooo.BucketNames }

func (s RunSpec) options() harness.Options {
	opt := harness.DefaultOptions()
	if s.WarmupInsts > 0 {
		opt.WarmupInsts = s.WarmupInsts
	}
	if s.MeasureInsts > 0 {
		opt.MeasureInsts = s.MeasureInsts
	}
	if s.Observer != nil {
		opt.OnSample = s.Observer.OnInterval
		opt.SampleInterval = s.ObserverInterval
	}
	if s.Tracer != nil {
		opt.Tracer = s.Tracer
	}
	if s.WarmupMode != "" {
		opt.WarmupMode = harness.WarmupMode(s.WarmupMode)
	}
	opt.Regions = s.Regions
	if s.RegionWorkers > 0 {
		opt.RegionWorkers = s.RegionWorkers
	}
	if s.sampled() {
		opt.Sampling = harness.Sampling{
			Units:       s.SampleUnits,
			UnitInsts:   s.SampleUnitInsts,
			WarmupInsts: s.SampleWarmupInsts,
			TargetCI:    s.SampleTargetCI,
			MaxUnits:    s.SampleMaxUnits,
			Seed:        s.SampleSeed,
		}
	}
	return opt
}

// toEstimate converts the internal estimator form to the wire form.
func toEstimate(m sample.Metric) SampleEstimate {
	return SampleEstimate{Mean: m.Mean, StdErr: m.StdErr, CIHalf: m.CIHalf, RelCI: m.RelCI}
}

func toMetrics(r harness.Result) Metrics {
	var sm *SamplingMetrics
	if sr := r.Sampling; sr != nil {
		sm = &SamplingMetrics{
			Units:        sr.PlannedUnits,
			UnitInsts:    sr.UnitInsts,
			WarmupInsts:  sr.WarmupInsts,
			Seed:         sr.Seed,
			TargetCI:     sr.TargetCI,
			Rounds:       sr.Rounds,
			Converged:    sr.Converged,
			SampledInsts: sr.SampledInsts,
			IPC:          toEstimate(sr.IPC),
			Coverage:     toEstimate(sr.Coverage),
			Accuracy:     toEstimate(sr.Accuracy),
		}
	}
	return Metrics{
		Sampling:          sm,
		IPC:               r.IPC,
		Coverage:          r.Coverage,
		Accuracy:          r.Accuracy,
		Cycles:            r.Stats.Cycles,
		Insts:             r.Stats.Retired,
		Loads:             r.Stats.RetiredLoads,
		VPFlushes:         r.Stats.VPFlushes,
		BranchMispredicts: r.Stats.BranchMispredicts,
		Forwards:          r.Stats.Forwards,
		LoadsByLevel:      r.Stats.LoadsByLevel,
		CycleBreakdown:    r.Stats.Breakdown,
		SkippedCycles:     r.Stats.SkippedCycles,
		SkipEvents:        r.Stats.SkipEvents,
		WarmupMode:        string(r.WarmupMode),
		FFInsts:           r.FFInsts,
		FFInstsPerSec:     ffRate(r.FFInsts, r.FFSeconds),
	}
}

// ffRate guards the throughput division (sub-microsecond fast-forwards
// round to zero seconds).
func ffRate(insts uint64, seconds float64) float64 {
	if insts == 0 || seconds <= 0 {
		return 0
	}
	return float64(insts) / seconds
}

// Run simulates one workload per spec and returns its metrics.
func Run(spec RunSpec) (Metrics, error) {
	return RunContext(context.Background(), spec)
}

// RunContext is Run with cooperative cancellation: the simulator's cycle
// loop polls ctx, so deadline expiry or cancellation stops the run within
// a few thousand simulated cycles and returns ctx's error.
func RunContext(ctx context.Context, spec RunSpec) (Metrics, error) {
	if err := Validate(spec); err != nil {
		return Metrics{}, err
	}
	w, _ := workload.ByName(spec.Workload)
	cfg, _ := coreConfig(spec.Machine)
	pf, _ := predFactory(spec.Predictor)
	r, err := harness.RunOneCtx(ctx, w, cfg, pf, spec.options())
	if err != nil {
		return Metrics{}, err
	}
	return toMetrics(r), nil
}

// Comparison pairs a predictor run with its baseline.
type Comparison struct {
	Workload string
	Category string
	Base     Metrics
	Pred     Metrics
}

// Speedup is Pred.IPC / Base.IPC.
func (c Comparison) Speedup() float64 {
	if c.Base.IPC == 0 {
		return 1
	}
	return c.Pred.IPC / c.Base.IPC
}

// Compare runs baseline and predictor for one workload.
func Compare(spec RunSpec) (Comparison, error) {
	return CompareContext(context.Background(), spec)
}

// CompareContext is Compare with cooperative cancellation (see
// RunContext); both the baseline and the predictor run honor ctx. The
// spec's Observer and Tracer tap only the predictor run: the baseline runs
// without them.
func CompareContext(ctx context.Context, spec RunSpec) (Comparison, error) {
	base := spec
	base.Predictor = PredNone
	base.Observer, base.Tracer = nil, nil
	b, err := RunContext(ctx, base)
	if err != nil {
		return Comparison{}, err
	}
	p, err := RunContext(ctx, spec)
	if err != nil {
		return Comparison{}, err
	}
	w, _ := workload.ByName(spec.Workload)
	return Comparison{Workload: spec.Workload, Category: string(w.Category), Base: b, Pred: p}, nil
}

// ReportRecord is the flat, machine-readable form of one run or
// comparison row — what fvpsim -json prints and what a plotting script
// consumes to redraw the paper's figures.
type ReportRecord struct {
	Workload  string  `json:"workload"`
	Category  string  `json:"category"`
	Core      string  `json:"core"`
	Predictor string  `json:"predictor"`
	BaseIPC   float64 `json:"base_ipc"`
	PredIPC   float64 `json:"pred_ipc"`
	Speedup   float64 `json:"speedup"`
	Coverage  float64 `json:"coverage"`
	Accuracy  float64 `json:"accuracy"`
	VPFlushes uint64  `json:"vp_flushes"`

	// Top-down cycle shares of the predictor run (fractions of cycles).
	Retiring float64 `json:"retiring"`
	MemStall float64 `json:"mem_stall"`
	Frontend float64 `json:"frontend"`

	// Simulator-speed meters of the predictor run: how many of its cycles
	// were idle-elided (clock-jumped) and what fraction of all cycles that
	// is. High SkipRatio = memory-bound workload the fast path accelerates
	// most; 0 under ooo.Config.DisableIdleElision.
	SkippedCycles uint64  `json:"skipped_cycles"`
	SkipRatio     float64 `json:"skip_ratio"`

	// WarmupMode records how the runs were warmed; FFInstsPerSec is the
	// fast-forward throughput of the predictor run (0 for purely detailed
	// runs).
	WarmupMode    string  `json:"warmup_mode,omitempty"`
	FFInstsPerSec float64 `json:"ff_insts_per_sec,omitempty"`

	// Sampled-run statistics of the predictor run (all zero for full-detail
	// runs): the final unit count, the detailed instruction budget actually
	// measured, and the relative 95% CI half-width of the per-unit IPC
	// estimate.
	SampleUnits  int     `json:"sample_units,omitempty"`
	SampledInsts uint64  `json:"sampled_insts,omitempty"`
	IPCRelCI     float64 `json:"ipc_rel_ci,omitempty"`
}

// ToRecord flattens a run into its ReportRecord, the row fvpsim -json
// prints (cmd/experiments -csv writes its own columns). base may be nil
// for a standalone run, in which case BaseIPC and Speedup are 0 ("no
// baseline measured").
func ToRecord(spec RunSpec, base *Metrics, pred Metrics) ReportRecord {
	spec = spec.Normalized()
	category := ""
	if w, ok := workload.ByName(spec.Workload); ok {
		category = string(w.Category)
	}
	coreName := string(spec.Machine)
	if cfg, err := coreConfig(spec.Machine); err == nil {
		coreName = cfg.Name
	}
	cycles := float64(pred.Cycles)
	if cycles == 0 {
		cycles = 1
	}
	mem := float64(pred.CycleBreakdown[ooo.CycMemL1] +
		pred.CycleBreakdown[ooo.CycMemL2] +
		pred.CycleBreakdown[ooo.CycMemLLC] +
		pred.CycleBreakdown[ooo.CycMemDRAM] +
		pred.CycleBreakdown[ooo.CycStoreFwd])
	rec := ReportRecord{
		Workload:  spec.Workload,
		Category:  category,
		Core:      coreName,
		Predictor: string(spec.Predictor),
		PredIPC:   pred.IPC,
		Coverage:  pred.Coverage,
		Accuracy:  pred.Accuracy,
		VPFlushes: pred.VPFlushes,
		Retiring:  float64(pred.CycleBreakdown[ooo.CycRetiring]) / cycles,
		MemStall:  mem / cycles,
		Frontend:  float64(pred.CycleBreakdown[ooo.CycFrontend]) / cycles,

		SkippedCycles: pred.SkippedCycles,
		SkipRatio:     float64(pred.SkippedCycles) / cycles,

		WarmupMode:    pred.WarmupMode,
		FFInstsPerSec: pred.FFInstsPerSec,
	}
	if sm := pred.Sampling; sm != nil {
		rec.SampleUnits = sm.Units
		rec.SampledInsts = sm.SampledInsts
		rec.IPCRelCI = sm.IPC.RelCI
	}
	if base != nil {
		rec.BaseIPC = base.IPC
		if base.IPC > 0 {
			rec.Speedup = pred.IPC / base.IPC
		}
	}
	return rec
}

// SuiteSpec describes a suite-wide baseline-vs-predictor sweep. The zero
// value (plus a Predictor) means: full study list, Skylake, default run
// lengths, GOMAXPROCS-wide parallelism.
type SuiteSpec struct {
	// Machine defaults to Skylake.
	Machine Machine `json:"machine,omitempty"`
	// Predictor is the arm compared against the PredNone baseline.
	Predictor Predictor `json:"predictor,omitempty"`
	// WarmupInsts and MeasureInsts default to 100k/300k.
	WarmupInsts  uint64 `json:"warmup_insts,omitempty"`
	MeasureInsts uint64 `json:"measure_insts,omitempty"`
	// WarmupMode applies to every run of the sweep ("" = detailed).
	WarmupMode string `json:"warmup_mode,omitempty"`
	// Workloads restricts the sweep to a subset of the study list; nil or
	// empty selects all 60 entries.
	Workloads []string `json:"workloads,omitempty"`
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int `json:"parallelism,omitempty"`
	// SampleUnits/SampleUnitInsts/SampleTargetCI/SampleSeed apply
	// SMARTS-style sampled simulation to every run of the sweep (see the
	// RunSpec fields of the same names).
	SampleUnits     int     `json:"sample_units,omitempty"`
	SampleUnitInsts uint64  `json:"sample_unit_insts,omitempty"`
	SampleTargetCI  float64 `json:"sample_target_ci,omitempty"`
	SampleSeed      uint64  `json:"sample_seed,omitempty"`
}

// CompareSuiteContext runs baseline and predictor over the suite's
// workloads (in parallel) and returns per-workload comparisons in input
// order. ctx cancellation stops every in-flight simulation within a few
// thousand simulated cycles.
func CompareSuiteContext(ctx context.Context, spec SuiteSpec) ([]Comparison, error) {
	names := spec.Workloads
	if len(names) == 0 {
		names = workloadNames()
	}
	runSpec := RunSpec{Machine: spec.Machine, Predictor: spec.Predictor,
		WarmupInsts: spec.WarmupInsts, MeasureInsts: spec.MeasureInsts,
		WarmupMode:  spec.WarmupMode,
		SampleUnits: spec.SampleUnits, SampleUnitInsts: spec.SampleUnitInsts,
		SampleTargetCI: spec.SampleTargetCI, SampleSeed: spec.SampleSeed}
	ws := make([]workload.Workload, len(names))
	for i, name := range names {
		runSpec.Workload = name
		if err := Validate(runSpec); err != nil {
			return nil, err
		}
		ws[i], _ = workload.ByName(name)
	}
	cfg, _ := coreConfig(spec.Machine)
	pf, _ := predFactory(spec.Predictor)
	opt := runSpec.options()
	opt.Parallelism = spec.Parallelism
	pairs, err := harness.RunComparisonCtx(ctx, ws, cfg, pf, opt)
	if err != nil {
		return nil, err
	}
	out := make([]Comparison, len(pairs))
	for i, p := range pairs {
		out[i] = Comparison{
			Workload: p.Base.Workload,
			Category: string(p.Base.Category),
			Base:     toMetrics(p.Base),
			Pred:     toMetrics(p.Pred),
		}
	}
	return out, nil
}

// Geomean returns the geometric-mean speedup of comparisons.
func Geomean(cs []Comparison) float64 {
	pairs := make([]harness.Pair, len(cs))
	for i, c := range cs {
		pairs[i] = harness.Pair{
			Base: harness.Result{IPC: c.Base.IPC},
			Pred: harness.Result{IPC: c.Pred.IPC},
		}
	}
	return harness.Geomean(pairs)
}

// ExperimentInfo names one paper artifact that can be regenerated.
type ExperimentInfo struct {
	ID    string
	Title string
}

// Experiments lists every reproducible table and figure.
func Experiments() []ExperimentInfo {
	es := harness.Experiments()
	out := make([]ExperimentInfo, len(es))
	for i, e := range es {
		out[i] = ExperimentInfo{ID: e.ID, Title: e.Title}
	}
	return out
}

// RunExperiment regenerates one table/figure, writing its report to out.
// warmup/measure of 0 select the defaults (100k/300k instructions).
func RunExperiment(id string, out io.Writer, warmup, measure uint64) error {
	return RunExperimentContext(context.Background(), id, out, warmup, measure)
}

// RunExperimentContext is RunExperiment with cooperative cancellation:
// every simulation behind the experiment polls ctx, and the first
// cancellation error is returned (the partial report already written to
// out should be discarded).
func RunExperimentContext(ctx context.Context, id string, out io.Writer, warmup, measure uint64) error {
	e, ok := harness.ExperimentByID(id)
	if !ok {
		return fmt.Errorf("fvp: unknown experiment %q (see fvp.Experiments)", id)
	}
	opt := RunSpec{WarmupInsts: warmup, MeasureInsts: measure}.options()
	r := harness.NewRunnerCtx(ctx, opt)
	if err := e.Run(r, out); err != nil {
		return err
	}
	return r.Err()
}

// StorageItem is a row of the Table-I budget breakdown.
type StorageItem struct {
	Name    string
	Entries int
	Bits    int
}

// FVPStorage returns the Table-I storage breakdown of the default FVP
// configuration (≈1.2 KB total).
func FVPStorage() []StorageItem {
	f := core.New(core.DefaultConfig())
	items := f.StorageBreakdown()
	out := make([]StorageItem, len(items))
	for i, it := range items {
		out[i] = StorageItem{Name: it.Name, Entries: it.Entries, Bits: it.Bits}
	}
	return out
}

// BuildWorkloadSource returns a fresh instruction source for a named
// workload plus a copy-on-write clone of its initial memory image (built
// once, not twice) — the low-level hook for users driving internal tooling
// (e.g. cmd/tracegen) or custom analyses over the functional trace without
// the timing model.
func BuildWorkloadSource(name string) (*prog.Exec, *prog.Memory, error) {
	w, ok := workload.ByName(name)
	if !ok {
		return nil, nil, unknownName("workload", name, workloadNames())
	}
	ex := prog.NewExec(w.Build())
	return ex, ex.Checkpoint().Memory(), nil
}

// ensure the façade's predictor names stay in sync with the framework.
var _ vp.Predictor = (*core.FVP)(nil)
