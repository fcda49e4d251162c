// Sweep reproduces three of the paper's comparisons in miniature on a
// four-workload subset: the Skylake → Skylake-2X scaling of FVP's benefit
// (Fig 9), the contribution of FVP's register- and memory-dependence
// components (Fig 13), and the criticality policies (Fig 12).
package main

import (
	"fmt"
	"log"
	"math"

	"fvp"
)

var workloads = []string{"omnetpp", "cassandra", "sphinx3", "leela"}

func gain(machine fvp.Machine, pred fvp.Predictor) float64 {
	sumLog := 0.0
	for _, w := range workloads {
		c, err := fvp.Compare(fvp.RunSpec{
			Workload:     w,
			Machine:      machine,
			Predictor:    pred,
			WarmupInsts:  80_000,
			MeasureInsts: 200_000,
		})
		if err != nil {
			log.Fatal(err)
		}
		sumLog += math.Log(c.Speedup())
	}
	return math.Exp(sumLog/float64(len(workloads)))*100 - 100
}

func main() {
	fmt.Printf("subset: %v\n\n", workloads)

	fmt.Println("machine scaling (paper Fig 9: FVP helps the scaled core much more):")
	fmt.Printf("  Skylake    : %+.2f%%\n", gain(fvp.Skylake, fvp.PredFVP))
	fmt.Printf("  Skylake-2X : %+.2f%%\n", gain(fvp.Skylake2X, fvp.PredFVP))

	fmt.Println("\ncomponent ablation (paper Fig 13):")
	fmt.Printf("  register deps only : %+.2f%%\n", gain(fvp.Skylake, fvp.PredFVPRegOnly))
	fmt.Printf("  memory deps only   : %+.2f%%\n", gain(fvp.Skylake, fvp.PredFVPMemOnly))
	fmt.Printf("  full FVP           : %+.2f%%\n", gain(fvp.Skylake, fvp.PredFVP))

	fmt.Println("\ncriticality policies (paper Fig 12):")
	fmt.Printf("  L1-miss-only  : %+.2f%%\n", gain(fvp.Skylake, fvp.PredFVPL1MissOnly))
	fmt.Printf("  L1-miss chain : %+.2f%%\n", gain(fvp.Skylake, fvp.PredFVPL1Miss))
	fmt.Printf("  retire-stall  : %+.2f%%\n", gain(fvp.Skylake, fvp.PredFVP))
	fmt.Printf("  oracle DDG    : %+.2f%%\n", gain(fvp.Skylake, fvp.PredFVPOracle))
}
