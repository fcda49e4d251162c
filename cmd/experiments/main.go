// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -id fig6            # one artifact
//	experiments -all                # everything (slow)
//	experiments -list               # show available artifacts
//	experiments -id fig10 -insts 500000 -warmup 200000
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/pprof"
	"syscall"

	"fvp"
)

// writeSuiteCSV dumps the per-workload FVP comparison as CSV for plotting.
// With sampling enabled each arm is a sampled estimate and the rows carry
// the IPC confidence intervals alongside the point values.
func writeSuiteCSV(ctx context.Context, path string, machine fvp.Machine, warmup, insts uint64, sampUnits int, sampCI float64, sampSeed uint64) error {
	cs, err := fvp.CompareSuiteContext(ctx, fvp.SuiteSpec{
		Machine:        machine,
		Predictor:      fvp.PredFVP,
		WarmupInsts:    warmup,
		MeasureInsts:   insts,
		SampleUnits:    sampUnits,
		SampleTargetCI: sampCI,
		SampleSeed:     sampSeed,
	})
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "workload,category,base_ipc,fvp_ipc,speedup,coverage,base_ipc_rel_ci,fvp_ipc_rel_ci")
	for _, c := range cs {
		var baseCI, predCI float64
		if c.Base.Sampling != nil {
			baseCI = c.Base.Sampling.IPC.RelCI
		}
		if c.Pred.Sampling != nil {
			predCI = c.Pred.Sampling.IPC.RelCI
		}
		fmt.Fprintf(f, "%s,%s,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f\n",
			c.Workload, c.Category, c.Base.IPC, c.Pred.IPC, c.Speedup(), c.Pred.Coverage, baseCI, predCI)
	}
	return nil
}

func main() {
	var (
		id     = flag.String("id", "", "experiment id (fig6, table1, epoch, ...)")
		all    = flag.Bool("all", false, "run every experiment")
		list   = flag.Bool("list", false, "list experiments")
		warmup = flag.Uint64("warmup", 0, "warmup instructions per run (0 = default 100k)")
		insts  = flag.Uint64("insts", 0, "measured instructions per run (0 = default 300k)")
		csv    = flag.String("csv", "", "write the per-workload FVP comparison (Fig 8 data) to this CSV file")
		sampU  = flag.Int("sample-units", 0, "with -csv: estimate each run from this many detailed sample units (0 = full detail)")
		sampCI = flag.Float64("sample-ci", 0, "with -csv: target relative 95% IPC CI half-width, growing units until met (0 = off)")
		sampS  = flag.Uint64("sample-seed", 0, "with -csv: sampling phase seed")
		prof   = flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
	)
	flag.Parse()

	if *prof != "" {
		f, err := os.Create(*prof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	// Ctrl-C stops the in-flight simulations cooperatively instead of
	// leaving a half-written artifact behind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *csv != "" {
		if err := writeSuiteCSV(ctx, *csv, fvp.Skylake, *warmup, *insts, *sampU, *sampCI, *sampS); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *csv)
		return
	}

	if *list || (!*all && *id == "") {
		fmt.Println("experiments:")
		for _, e := range fvp.Experiments() {
			fmt.Printf("  %-14s %s\n", e.ID, e.Title)
		}
		return
	}

	ids := []string{*id}
	if *all {
		ids = nil
		for _, e := range fvp.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	if err := fvp.RunExperiments(ctx, ids, os.Stdout, *warmup, *insts); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
