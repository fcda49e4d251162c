package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"fvp/internal/ooo"
)

// Ablation experiments: the design choices DESIGN.md calls out, each
// toggled off (or swept) against the default Skylake baseline, with FVP's
// gain re-measured under the variant. These extend the paper's evaluation
// (the paper holds the substrate fixed).

// ablationVariant is one baseline-system modification.
type ablationVariant struct {
	label string
	mk    func() ooo.Config
}

func ablationVariants() []ablationVariant {
	return []ablationVariant{
		{"default Skylake", ooo.Skylake},
		{"no L1 stride prefetcher", func() ooo.Config {
			c := ooo.Skylake()
			c.Mem.StridePCBits = 0
			return c
		}},
		{"no L2/LLC stream prefetcher", func() ooo.Config {
			c := ooo.Skylake()
			c.Mem.Streams = 0
			return c
		}},
		{"no prefetching at all", func() ooo.Config {
			c := ooo.Skylake()
			c.Mem.StridePCBits = 0
			c.Mem.Streams = 0
			return c
		}},
		{"conservative mem disambiguation", func() ooo.Config {
			c := ooo.Skylake()
			c.ConservativeMemDisambiguation = true
			return c
		}},
		{"VP mispredict penalty 10", func() ooo.Config {
			c := ooo.Skylake()
			c.VPMispredictPenalty = 10
			return c
		}},
		{"VP mispredict penalty 40", func() ooo.Config {
			c := ooo.Skylake()
			c.VPMispredictPenalty = 40
			return c
		}},
	}
}

// runAblation measures, for each baseline variant, the variant's baseline
// IPC relative to default Skylake and FVP's gain under the variant.
func runAblation(r *Runner, out io.Writer) error {
	fmt.Fprintln(out, "Baseline-system ablations (extension): how substrate choices move the baseline and FVP's benefit")
	def := r.Baseline(ooo.Skylake())
	defGeo := func(res []Result) float64 {
		pairs := make([]Pair, len(res))
		for i := range res {
			pairs[i] = Pair{Base: def[i], Pred: res[i]}
		}
		return Geomean(pairs)
	}

	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "variant\tbaseline IPC vs default\tFVP gain under variant")
	for _, v := range ablationVariants() {
		cfg := v.mk()
		base := r.Baseline(cfg)
		pairs := r.Compare(cfg, SpecFVP)
		fmt.Fprintf(w, "%s\t%+.2f%%\t%s\n",
			v.label, (defGeo(base)-1)*100, pct(Geomean(pairs)))
	}
	w.Flush()
	return nil
}

// runBaselinePredictors compares every predictor family at its reference
// sizing on Skylake — the wider shoot-out behind Figs 10/11 (the paper
// reports that the Composite dominates EVES and DLVP; this regenerates the
// supporting comparison including the simple LVP/stride/VTAGE baselines).
func runBaselinePredictors(r *Runner, out io.Writer) error {
	fmt.Fprintln(out, "Predictor shoot-out on Skylake (extension of Figs 10/11)")
	arms := []arm{
		{"LVP", SpecLVP}, {"Stride", SpecStride}, {"VTAGE", SpecVTAGE}, {"EVES", SpecEVES},
		{"MR-8KB", SpecMR8KB}, {"Composite-8KB", SpecComp8KB}, {"FVP", SpecFVP},
	}
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "predictor\tstorage\tIPC gain\tcoverage\taccuracy")
	for _, a := range arms {
		pairs := r.Compare(ooo.Skylake(), a.spec)
		bits := Factory(a.spec)().StorageBits()
		acc, n := 0.0, 0
		for _, p := range pairs {
			if p.Pred.Meter.Correct+p.Pred.Meter.Wrong > 0 {
				acc += p.Pred.Accuracy
				n++
			}
		}
		if n > 0 {
			acc /= float64(n)
		}
		fmt.Fprintf(w, "%s\t%.1f KB\t%s\t%.0f%%\t%.2f%%\n",
			a.label, float64(bits)/8/1024, pct(Geomean(pairs)),
			MeanCoverage(pairs)*100, acc*100)
	}
	w.Flush()
	return nil
}
