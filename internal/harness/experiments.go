package harness

import (
	"context"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"fvp/internal/core"
	"fvp/internal/ooo"
	"fvp/internal/vp"
	"fvp/internal/workload"
)

// Experiment is one reproducible unit of the paper's evaluation section.
type Experiment struct {
	// ID is the command-line handle ("fig6", "table1", "epoch", ...).
	ID string
	// Title describes what the paper artifact shows.
	Title string
	// Run executes the experiment and writes its table to out.
	Run func(r *Runner, out io.Writer) error
}

// Runner memoizes suite results per (core config, predictor spec) so
// experiments sharing a suite — every figure reuses the baseline, and
// fig6/fig7/fig8/fig9/fig13 all need the plain FVP arm — simulate each one
// exactly once per process.
type Runner struct {
	Opt Options
	// Workloads defaults to the full 60-entry list; tests shrink it.
	Workloads []workload.Workload

	ctx    context.Context
	err    error
	suites map[suiteKey][]Result
	// suiteRuns counts actual suite simulations (memo misses). Tests use it
	// to assert that repeated Compare calls do zero new runs.
	suiteRuns int
}

// suiteKey identifies one memoized suite: the core configuration by
// value, so two configs that share a name never share results, and the
// predictor arm by spec (or by caller-chosen label for closure factories
// — see CompareWith).
type suiteKey struct {
	core ooo.Config
	spec Spec
}

// NewRunnerCtx builds a runner over the full study list whose suite runs
// honor ctx. Because the Experiment.Run signature has no error channel,
// the first run error is latched on the runner — check Err after running.
func NewRunnerCtx(ctx context.Context, opt Options) *Runner {
	return &Runner{
		Opt:       opt,
		Workloads: workload.All(),
		ctx:       ctx,
		suites:    make(map[suiteKey][]Result),
	}
}

// Err reports the first error hit by a suite run, if any.
func (r *Runner) Err() error { return r.err }

// SuiteRuns reports how many suites were actually simulated (memo misses).
func (r *Runner) SuiteRuns() int { return r.suiteRuns }

// Baseline returns (memoized) baseline results for a core config.
func (r *Runner) Baseline(cfg ooo.Config) []Result {
	return r.memoSuite(cfg, SpecNone, nil)
}

// Compare runs the spec's predictor suite — memoized per (cfg, spec) —
// and pairs it with the (equally memoized) baseline.
func (r *Runner) Compare(cfg ooo.Config, spec Spec) []Pair {
	return r.pair(cfg, r.memoSuite(cfg, spec, Factory(spec)))
}

// CompareWith is Compare for ad-hoc predictor factories that have no Spec
// (parameter sweeps). label keys the memo alongside the named specs, so it
// must uniquely describe the factory's configuration.
func (r *Runner) CompareWith(cfg ooo.Config, label string, pf PredFactory) []Pair {
	return r.pair(cfg, r.memoSuite(cfg, Spec(label), pf))
}

func (r *Runner) pair(cfg ooo.Config, pred []Result) []Pair {
	base := r.Baseline(cfg)
	pairs := make([]Pair, len(base))
	for i := range base {
		pairs[i] = Pair{Base: base[i], Pred: pred[i]}
	}
	return pairs
}

func (r *Runner) memoSuite(cfg ooo.Config, spec Spec, pf PredFactory) []Result {
	key := suiteKey{core: cfg, spec: spec}
	if res, ok := r.suites[key]; ok {
		return res
	}
	r.suiteRuns++
	res, err := RunSuiteCtx(r.ctx, r.Workloads, cfg, pf, r.Opt)
	if err != nil && r.err == nil {
		r.err = err
	}
	// A cancelled run is cached too: the runner is poisoned (err latched)
	// and every later call would be cancelled the same way.
	r.suites[key] = res
	return res
}

func pct(x float64) string { return fmt.Sprintf("%+.2f%%", (x-1)*100) }

// categoryTable prints per-category geomean speedup and mean coverage, plus
// the overall geomean — the Fig-6/7 format.
func categoryTable(out io.Writer, pairs []Pair, withCoverage bool) {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	byCat := ByCategory(pairs)
	if withCoverage {
		fmt.Fprintln(w, "category\tIPC gain\tcoverage")
	} else {
		fmt.Fprintln(w, "category\tIPC gain")
	}
	for _, c := range workload.Categories() {
		ps := byCat[c]
		if len(ps) == 0 {
			continue
		}
		if withCoverage {
			fmt.Fprintf(w, "%s\t%s\t%.0f%%\n", c, pct(Geomean(ps)), MeanCoverage(ps)*100)
		} else {
			fmt.Fprintf(w, "%s\t%s\n", c, pct(Geomean(ps)))
		}
	}
	if withCoverage {
		fmt.Fprintf(w, "Geomean\t%s\t%.0f%%\n", pct(Geomean(pairs)), MeanCoverage(pairs)*100)
	} else {
		fmt.Fprintf(w, "Geomean\t%s\n", pct(Geomean(pairs)))
	}
	w.Flush()
}

// Experiments returns every experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table I: FVP storage requirements", Run: runTable1},
		{ID: "table2", Title: "Table II: core parameters", Run: runTable2},
		{ID: "table3", Title: "Table III: study list", Run: runTable3},
		{ID: "fig6", Title: "Fig 6: FVP performance and coverage on Skylake", Run: runFig6},
		{ID: "fig7", Title: "Fig 7: FVP performance and coverage on Skylake-2X", Run: runFig7},
		{ID: "fig8", Title: "Fig 8: per-workload IPC and coverage on Skylake", Run: runFig8},
		{ID: "fig9", Title: "Fig 9: per-workload FVP on Skylake vs Skylake-2X", Run: runFig9},
		{ID: "fig10", Title: "Fig 10: prior-art comparison on Skylake", Run: runFig10},
		{ID: "fig11", Title: "Fig 11: prior-art comparison on Skylake-2X", Run: runFig11},
		{ID: "fig12", Title: "Fig 12: sensitivity to criticality criteria", Run: runFig12},
		{ID: "fig13", Title: "Fig 13: contribution of FVP components", Run: runFig13},
		{ID: "alltypes", Title: "§VI-A2: predicting all instruction types", Run: runAllTypes},
		{ID: "branchchains", Title: "§VI-A3: predicting branch mis-prediction chains", Run: runBranchChains},
		{ID: "epoch", Title: "§VI-C1: criticality-epoch sensitivity", Run: runEpoch},
		{ID: "tables", Title: "§VI-D: table-size sensitivity", Run: runTableSizes},
		{ID: "stalls", Title: "extension: top-down cycle breakdown with and without FVP", Run: runStalls},
		{ID: "ablation", Title: "extension: baseline-substrate ablations (prefetchers, disambiguation, VP penalty)", Run: runAblation},
		{ID: "baselines", Title: "extension: full predictor shoot-out incl. LVP/stride/VTAGE/EVES", Run: runBaselinePredictors},
	}
}

// ExperimentByID finds an experiment.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func runTable1(_ *Runner, out io.Writer) error {
	f := core.New(core.DefaultConfig())
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "structure\tentries\tbits\tbytes")
	total := 0
	for _, it := range f.StorageBreakdown() {
		fmt.Fprintf(w, "%s\t%d\t%d\t%.0f\n", it.Name, it.Entries, it.Bits, float64(it.Bits)/8)
		total += it.Bits
	}
	fmt.Fprintf(w, "Total\t\t%d\t%.0f (≈%.1f KB)\n", total, float64(total)/8, float64(total)/8/1024)
	w.Flush()
	return nil
}

func runTable2(_ *Runner, out io.Writer) error {
	for _, cfg := range []ooo.Config{ooo.Skylake(), ooo.Skylake2X()} {
		fmt.Fprintf(out, "%s:\n", cfg.Name)
		fmt.Fprintf(out, "  front end: %d-wide fetch, depth %d, mispredict penalty %d\n",
			cfg.FetchWidth, cfg.FrontEndDepth, cfg.BranchMispredictPenalty)
		fmt.Fprintf(out, "  window: ROB %d, IQ %d, LQ %d, SQ %d, retire %d-wide\n",
			cfg.ROBSize, cfg.IQSize, cfg.LQSize, cfg.SQSize, cfg.RetireWidth)
		fmt.Fprintf(out, "  ports: %d ALU, %d load, %d store, %d FP, %d branch\n",
			cfg.ALUPorts, cfg.LoadPorts, cfg.StorePorts, cfg.FPPorts, cfg.BranchPorts)
		fmt.Fprintf(out, "  caches: L1D %dKB/%dw (%d cyc), L2 %dKB/%dw (%d cyc), LLC %dMB/%dw (%d cyc)\n",
			cfg.Mem.L1D.SizeBytes>>10, cfg.Mem.L1D.Ways, cfg.Mem.L1D.Latency,
			cfg.Mem.L2.SizeBytes>>10, cfg.Mem.L2.Ways, cfg.Mem.L2.Latency,
			cfg.Mem.LLC.SizeBytes>>20, cfg.Mem.LLC.Ways, cfg.Mem.LLC.Latency)
		fmt.Fprintf(out, "  memory: %d channels DDR4, VP mispredict penalty %d\n",
			cfg.Mem.Dram.Channels, cfg.VPMispredictPenalty)
	}
	return nil
}

func runTable3(r *Runner, out io.Writer) error {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	byCat := make(map[workload.Category][]string)
	for _, wl := range r.Workloads {
		byCat[wl.Category] = append(byCat[wl.Category], wl.Name)
	}
	fmt.Fprintln(w, "category\tcount\tbenchmarks")
	for _, c := range workload.Categories() {
		names := byCat[c]
		sort.Strings(names)
		fmt.Fprintf(w, "%s\t%d\t%v\n", c, len(names), names)
	}
	w.Flush()
	return nil
}

func runFig6(r *Runner, out io.Writer) error {
	pairs := r.Compare(ooo.Skylake(), SpecFVP)
	fmt.Fprintln(out, "FVP on Skylake (paper: FSPEC 2.6%, ISPEC 4.6%, Server 5.7%, SPEC17 0.9%, geomean 3.3% @ 25% coverage)")
	categoryTable(out, pairs, true)
	return nil
}

func runFig7(r *Runner, out io.Writer) error {
	pairs := r.Compare(ooo.Skylake2X(), SpecFVP)
	fmt.Fprintln(out, "FVP on Skylake-2X (paper: FSPEC 7.0%, ISPEC 15.1%, Server 11.7%, SPEC17 2.5%, geomean 8.6% @ 24% coverage)")
	categoryTable(out, pairs, true)
	return nil
}

func runFig8(r *Runner, out io.Writer) error {
	pairs := r.Compare(ooo.Skylake(), SpecFVP)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "workload\tcategory\tIPC ratio\tcoverage")
	for _, p := range pairs {
		fmt.Fprintf(w, "%s\t%s\t%.3f\t%.0f%%\n",
			p.Base.Workload, p.Base.Category, p.Speedup(), p.Pred.Coverage*100)
	}
	w.Flush()
	return nil
}

func runFig9(r *Runner, out io.Writer) error {
	sky := r.Compare(ooo.Skylake(), SpecFVP)
	sky2 := r.Compare(ooo.Skylake2X(), SpecFVP)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "workload\tSkylake+FVP/Skylake\tSkylake2X+FVP/Skylake2X")
	for i := range sky {
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\n", sky[i].Base.Workload, sky[i].Speedup(), sky2[i].Speedup())
	}
	fmt.Fprintf(w, "Geomean\t%.3f\t%.3f\n", Geomean(sky), Geomean(sky2))
	w.Flush()
	return nil
}

func priorArt(r *Runner, cfg ooo.Config, out io.Writer) error {
	specs := []Spec{SpecMR8KB, SpecComp8KB, SpecFVP, SpecMR1KB, SpecComp1KB}
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "predictor\tstorage\tIPC gain\tcoverage")
	for _, s := range specs {
		pairs := r.Compare(cfg, s)
		bits := Factory(s)().StorageBits()
		fmt.Fprintf(w, "%s\t%.1f KB\t%s\t%.0f%%\n",
			s, float64(bits)/8/1024, pct(Geomean(pairs)), MeanCoverage(pairs)*100)
	}
	w.Flush()
	return nil
}

func runFig10(r *Runner, out io.Writer) error {
	fmt.Fprintln(out, "Prior art on Skylake (paper: MR-8KB 3.8%@18%, Comp-8KB 3.9%@39%, FVP 3.3%@25%, MR-1KB 1.1%@11%, Comp-1KB 1.7%@24%)")
	return priorArt(r, ooo.Skylake(), out)
}

func runFig11(r *Runner, out io.Writer) error {
	fmt.Fprintln(out, "Prior art on Skylake-2X (paper: MR-8KB 8.2%, Comp-8KB 8.7%, FVP 8.6%, MR-1KB 3.2%, Comp-1KB 4.7%)")
	return priorArt(r, ooo.Skylake2X(), out)
}

func runFig12(r *Runner, out io.Writer) error {
	fmt.Fprintln(out, "Criticality criteria on Skylake (paper: L1-Miss-Only 0.0%@6%, L1-Miss 2.1%@15%, FVP 3.3%@25%, Oracle 3.87%@19%)")
	specs := []Spec{SpecFVPL1MissOnl, SpecFVPL1Miss, SpecFVP, SpecFVPOracle}
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "policy\tIPC gain\tcoverage")
	for _, s := range specs {
		pairs := r.Compare(ooo.Skylake(), s)
		fmt.Fprintf(w, "%s\t%s\t%.0f%%\n", s, pct(Geomean(pairs)), MeanCoverage(pairs)*100)
	}
	w.Flush()
	return nil
}

func runFig13(r *Runner, out io.Writer) error {
	fmt.Fprintln(out, "Component contribution on Skylake (paper: register deps — FSPEC 2.10%, ISPEC 2.14%, Server 0.42%, SPEC17 0.29%; memory deps — FSPEC 0.46%, ISPEC 2.42%, Server 5.28%, SPEC17 0.63%)")
	reg := r.Compare(ooo.Skylake(), SpecFVPRegOnly)
	mem := r.Compare(ooo.Skylake(), SpecFVPMemOnly)
	full := r.Compare(ooo.Skylake(), SpecFVP)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "category\tregister deps\tmemory deps\tfull FVP")
	byR, byM, byF := ByCategory(reg), ByCategory(mem), ByCategory(full)
	for _, c := range workload.Categories() {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", c,
			pct(Geomean(byR[c])), pct(Geomean(byM[c])), pct(Geomean(byF[c])))
	}
	fmt.Fprintf(w, "Geomean\t%s\t%s\t%s\n",
		pct(Geomean(reg)), pct(Geomean(mem)), pct(Geomean(full)))
	w.Flush()
	return nil
}

func runAllTypes(r *Runner, out io.Writer) error {
	fmt.Fprintln(out, "§VI-A2 (paper: predicting non-loads adds nothing, can degrade slightly)")
	loads := r.Compare(ooo.Skylake(), SpecFVP)
	all := r.Compare(ooo.Skylake(), SpecFVPAllTypes)
	fmt.Fprintf(out, "FVP loads-only: %s    FVP all-types: %s\n",
		pct(Geomean(loads)), pct(Geomean(all)))
	return nil
}

func runBranchChains(r *Runner, out io.Writer) error {
	fmt.Fprintln(out, "§VI-A3 (paper: targeting mispredicting-branch chains adds 0.5% coverage, 0.05% speedup)")
	def := r.Compare(ooo.Skylake(), SpecFVP)
	br := r.Compare(ooo.Skylake(), SpecFVPBrChains)
	fmt.Fprintf(out, "FVP: %s @ %.1f%% cov    FVP+branch-chains: %s @ %.1f%% cov\n",
		pct(Geomean(def)), MeanCoverage(def)*100,
		pct(Geomean(br)), MeanCoverage(br)*100)
	return nil
}

func runEpoch(r *Runner, out io.Writer) error {
	fmt.Fprintln(out, "§VI-C1: criticality-epoch sweep (paper: best ≈ 400k retirements; very small and very large both lose)")
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "epoch\tIPC gain")
	for _, epoch := range []uint64{25_000, 100_000, 400_000, 1_600_000, 6_400_000} {
		epoch := epoch
		pf := func() vp.Predictor {
			c := core.DefaultConfig()
			c.Epoch = epoch
			return core.New(c)
		}
		pairs := r.CompareWith(ooo.Skylake(), fmt.Sprintf("FVP-epoch-%d", epoch), pf)
		fmt.Fprintf(w, "%d\t%s\n", epoch, pct(Geomean(pairs)))
	}
	w.Flush()
	return nil
}

// runStalls prints the per-category top-down cycle accounting for the
// baseline and under FVP — it makes visible *where* FVP's cycles come from
// (mem-DRAM and store-fwd stalls shrink; retiring grows).
func runStalls(r *Runner, out io.Writer) error {
	pairs := r.Compare(ooo.Skylake(), SpecFVP)
	type agg struct{ base, pred ooo.CycleBreakdown }
	cats := map[workload.Category]*agg{}
	for _, p := range pairs {
		a := cats[p.Base.Category]
		if a == nil {
			a = &agg{}
			cats[p.Base.Category] = a
		}
		for i := range a.base {
			a.base[i] += p.Base.Stats.Breakdown[i]
			a.pred[i] += p.Pred.Stats.Breakdown[i]
		}
	}
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "category")
	for _, n := range ooo.BucketNames {
		fmt.Fprintf(w, "	%s", n)
	}
	fmt.Fprintln(w)
	for _, c := range workload.Categories() {
		a := cats[c]
		if a == nil {
			continue
		}
		sum := func(b ooo.CycleBreakdown) (t float64) {
			for _, v := range b {
				t += float64(v)
			}
			return
		}
		bt, pt := sum(a.base), sum(a.pred)
		fmt.Fprintf(w, "%s base", c)
		for _, v := range a.base {
			fmt.Fprintf(w, "	%.0f%%", 100*float64(v)/bt)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%s +FVP", c)
		for _, v := range a.pred {
			fmt.Fprintf(w, "	%.0f%%", 100*float64(v)/pt)
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	return nil
}

func runTableSizes(r *Runner, out io.Writer) error {
	fmt.Fprintln(out, "§VI-D: table sizes (paper: VT 48→96 + VF 40→128 ≈ +1%; beyond that flat; CIT size nearly irrelevant)")
	type cfgRow struct {
		label           string
		vt, vf, cit, lt int
	}
	rows := []cfgRow{
		{"VT 24 / VF 20 / CIT 32", 24, 20, 32, 2},
		{"VT 48 / VF 40 / CIT 32 (default)", 48, 40, 32, 2},
		{"VT 96 / VF 128 / CIT 32", 96, 128, 32, 2},
		{"VT 192 / VF 256 / CIT 32", 192, 256, 32, 2},
		{"VT 48 / VF 40 / CIT 8", 48, 40, 8, 2},
		{"VT 48 / VF 40 / CIT 16", 48, 40, 16, 2},
	}
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "configuration\tIPC gain\tcoverage")
	for _, row := range rows {
		row := row
		pf := func() vp.Predictor {
			c := core.DefaultConfig()
			c.VTEntries = row.vt
			c.MR.VFEntries = row.vf
			c.CITEntries = row.cit
			c.LTEntries = row.lt
			return core.New(c)
		}
		pairs := r.CompareWith(ooo.Skylake(), "FVP-"+row.label, pf)
		fmt.Fprintf(w, "%s\t%s\t%.0f%%\n", row.label, pct(Geomean(pairs)), MeanCoverage(pairs)*100)
	}
	w.Flush()
	return nil
}
