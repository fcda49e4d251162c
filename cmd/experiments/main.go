// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -id fig6            # one artifact
//	experiments -all                # everything (slow)
//	experiments -list               # show available artifacts
//	experiments -id fig10 -insts 500000 -warmup 200000
//	experiments -csv fig8.csv -sample-units 16
//
// A set flag that the chosen mode does not read is refused: the -sample-*
// flags go with -csv only, -list takes no other flag, and -csv, -all and
// -id exclude one another.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/pprof"
	"slices"
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
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run executes the command line args, writing reports to stdout. It
// returns every failure, so the CPU profile is complete before the process
// exits, also when a run fails or is interrupted.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	var (
		id     = fs.String("id", "", "experiment id (fig6, table1, epoch, ...)")
		all    = fs.Bool("all", false, "run every experiment")
		list   = fs.Bool("list", false, "list experiments")
		warmup = fs.Uint64("warmup", 0, "warmup instructions per run (0 = default 100k)")
		insts  = fs.Uint64("insts", 0, "measured instructions per run (0 = default 300k)")
		csv    = fs.String("csv", "", "write the per-workload FVP comparison (Fig 8 data) to this CSV file")
		sampU  = fs.Int("sample-units", 0, "with -csv: estimate each run from this many detailed sample units (0 = full detail)")
		sampCI = fs.Float64("sample-ci", 0, "with -csv: target relative 95% IPC CI half-width, growing units until met (0 = off)")
		sampS  = fs.Uint64("sample-seed", 0, "with -csv: sampling phase seed")
		prof   = fs.String("cpuprofile", "", "write a CPU profile of the experiment runs (with -id, -all or -csv) to this file")
	)
	fs.Parse(args) // ExitOnError: a bad command line exits here

	// The first of -csv, -list and -id/-all that is given picks the mode,
	// and reads names the flags it reads. With none of them the command
	// lists and reads nothing.
	var mode string
	var reads []string
	switch {
	case *csv != "":
		mode, reads = "csv", []string{"csv", "warmup", "insts", "sample-units", "sample-ci", "sample-seed", "cpuprofile"}
	case *list:
		mode, reads = "list", []string{"list"}
	case *all:
		mode, reads = "all", []string{"all", "warmup", "insts", "cpuprofile"}
	case *id != "":
		mode, reads = "id", []string{"id", "warmup", "insts", "cpuprofile"}
	}
	fs.Visit(func(f *flag.Flag) {
		if err != nil || slices.Contains(reads, f.Name) {
			return
		}
		if mode == "" {
			err = fmt.Errorf("-%s is not supported without -id, -all or -csv", f.Name)
		} else {
			err = fmt.Errorf("-%s is not supported with -%s", f.Name, mode)
		}
	})
	if err != nil {
		return err
	}

	if mode == "list" || mode == "" {
		fmt.Fprintln(stdout, "experiments:")
		for _, e := range fvp.Experiments() {
			fmt.Fprintf(stdout, "  %-14s %s\n", e.ID, e.Title)
		}
		return nil
	}

	if *prof != "" {
		var f *os.File
		if f, err = os.Create(*prof); err != nil {
			return err
		}
		if err = pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}

	// Ctrl-C stops the in-flight simulations cooperatively instead of
	// leaving a half-written artifact behind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if mode == "csv" {
		if err := writeSuiteCSV(ctx, *csv, fvp.Skylake, *warmup, *insts, *sampU, *sampCI, *sampS); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", *csv)
		return nil
	}
	ids := []string{*id}
	if *all {
		ids = nil
		for _, e := range fvp.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	return fvp.RunExperiments(ctx, ids, stdout, *warmup, *insts)
}
