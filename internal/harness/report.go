package harness

import (
	"encoding/json"
	"fmt"
	"io"

	"fvp/internal/ooo"
)

// ReportRecord is the flat, machine-readable form of one comparison row —
// what a plotting script consumes to redraw the paper's figures.
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

// Records flattens comparison pairs into report rows.
func Records(pairs []Pair) []ReportRecord {
	out := make([]ReportRecord, len(pairs))
	for i, p := range pairs {
		cycles := float64(p.Pred.Stats.Cycles)
		if cycles == 0 {
			cycles = 1
		}
		mem := float64(p.Pred.Stats.Breakdown[ooo.CycMemL1] +
			p.Pred.Stats.Breakdown[ooo.CycMemL2] +
			p.Pred.Stats.Breakdown[ooo.CycMemLLC] +
			p.Pred.Stats.Breakdown[ooo.CycMemDRAM] +
			p.Pred.Stats.Breakdown[ooo.CycStoreFwd])
		out[i] = ReportRecord{
			Workload:  p.Base.Workload,
			Category:  string(p.Base.Category),
			Core:      p.Base.Core,
			Predictor: p.Pred.Predictor,
			BaseIPC:   p.Base.IPC,
			PredIPC:   p.Pred.IPC,
			Speedup:   p.Speedup(),
			Coverage:  p.Pred.Coverage,
			Accuracy:  p.Pred.Accuracy,
			VPFlushes: p.Pred.Stats.VPFlushes,
			Retiring:  float64(p.Pred.Stats.Breakdown[ooo.CycRetiring]) / cycles,
			MemStall:  mem / cycles,
			Frontend:  float64(p.Pred.Stats.Breakdown[ooo.CycFrontend]) / cycles,

			SkippedCycles: p.Pred.Stats.SkippedCycles,
			SkipRatio:     float64(p.Pred.Stats.SkippedCycles) / cycles,

			WarmupMode: string(p.Pred.WarmupMode),
		}
		if p.Pred.FFSeconds > 0 {
			out[i].FFInstsPerSec = float64(p.Pred.FFInsts) / p.Pred.FFSeconds
		}
		if sr := p.Pred.Sampling; sr != nil {
			out[i].SampleUnits = sr.PlannedUnits
			out[i].SampledInsts = sr.SampledInsts
			out[i].IPCRelCI = sr.IPC.RelCI
		}
	}
	return out
}

// WriteJSON emits records as an indented JSON array.
func WriteJSON(w io.Writer, recs []ReportRecord) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(recs)
}

// WriteCSV emits records as a CSV table with a header row.
func WriteCSV(w io.Writer, recs []ReportRecord) error {
	if _, err := fmt.Fprintln(w,
		"workload,category,core,predictor,base_ipc,pred_ipc,speedup,coverage,accuracy,vp_flushes,retiring,mem_stall,frontend,skipped_cycles,skip_ratio,warmup_mode,ff_insts_per_sec,sample_units,sampled_insts,ipc_rel_ci"); err != nil {
		return err
	}
	for _, r := range recs {
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%s,%.4f,%.4f,%.4f,%.4f,%.4f,%d,%.4f,%.4f,%.4f,%d,%.4f,%s,%.0f,%d,%d,%.4f\n",
			r.Workload, r.Category, r.Core, r.Predictor, r.BaseIPC, r.PredIPC,
			r.Speedup, r.Coverage, r.Accuracy, r.VPFlushes,
			r.Retiring, r.MemStall, r.Frontend, r.SkippedCycles, r.SkipRatio,
			r.WarmupMode, r.FFInstsPerSec, r.SampleUnits, r.SampledInsts, r.IPCRelCI); err != nil {
			return err
		}
	}
	return nil
}
