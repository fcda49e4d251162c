// Command tracegen prints a workload's dynamic micro-op stream as summary
// statistics or a disassembly-style listing of the first instructions.
//
// Usage:
//
//	tracegen -workload mcf -n 50000 -stats
//	tracegen -workload omnetpp -n 20 -print
package main

import (
	"flag"
	"fmt"
	"os"

	"fvp"
	"fvp/internal/isa"
)

func main() {
	var (
		wl    = flag.String("workload", "omnetpp", "workload name")
		n     = flag.Uint64("n", 1_000_000, "instructions to generate")
		stats = flag.Bool("stats", false, "print instruction-mix statistics")
		list  = flag.Bool("print", false, "print each instruction (use small -n)")
	)
	flag.Parse()

	ex, _, err := fvp.BuildWorkloadSource(*wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}

	var mix [isa.NumOps]uint64
	var taken, branches uint64
	var d isa.DynInst
	var done uint64
	for done < *n && ex.Next(&d) {
		done++
		mix[d.Op]++
		if d.Op.IsBranch() {
			branches++
			if d.Taken {
				taken++
			}
		}
		if *list {
			fmt.Println(d.String())
		}
	}
	if *stats {
		fmt.Printf("%s: %d instructions\n", *wl, done)
		for op := 0; op < isa.NumOps; op++ {
			if mix[op] == 0 {
				continue
			}
			fmt.Printf("  %-6s %9d (%.1f%%)\n", isa.Op(op), mix[op],
				100*float64(mix[op])/float64(done))
		}
		if branches > 0 {
			fmt.Printf("  taken branches: %.1f%%\n", 100*float64(taken)/float64(branches))
		}
	}
}
