// Caption autotune: the paper's core contribution (§6). The controller
// monitors PMU counters, estimates memory-subsystem performance with a
// linear model fitted on a DLRM sweep, and greedily tunes the fraction of
// new pages allocated to CXL memory (Algorithm 1).
package main

import (
	"fmt"
	"log"

	"cxlmem"
	"cxlmem/internal/workloads/dlrm"
	"cxlmem/internal/workloads/spec"
)

func main() {
	sys := cxlmem.NewSystem()

	// (M2) Fit the estimator from a DLRM calibration sweep.
	sweep, thr := dlrm.CalibrationSweep(sys, "CXL-A", 5)

	// Drive the weighted-interleave mempolicy with a Caption controller.
	policy := cxlmem.NewPolicy(50) // OS default: even interleave
	caption, err := cxlmem.NewCaption(sweep, thr, policy)
	if err != nil {
		log.Fatal(err)
	}

	// Tune a SPECrate mix of mcf and roms (a Fig. 13 case).
	mix := []spec.Member{
		{Profile: spec.Mcf, Instances: 8},
		{Profile: spec.Roms, Instances: 8},
	}
	gips0 := spec.Run(sys, mix, "CXL-A", 0).GIPS
	gips50 := spec.Run(sys, mix, "CXL-A", 50).GIPS

	fmt.Println("Caption tuning mcf+roms (normalized to DDR-only):")
	ratio := caption.Ratio()
	var last float64
	for i := 0; i < 40; i++ {
		res := spec.Run(sys, mix, "CXL-A", ratio)
		last = res.GIPS / gips0
		_, next, err := caption.Observe(res.Sample)
		if err != nil {
			log.Fatal(err)
		}
		if i%5 == 0 || i == 39 {
			fmt.Printf("  interval %2d: ratio %3.0f%%  throughput %.3f\n", i, ratio, last)
		}
		ratio = next
	}
	fmt.Printf("\nstatic DDR-only     : 1.000\n")
	fmt.Printf("static 50:50        : %.3f  (naive interleaving loses — F4)\n", gips50/gips0)
	fmt.Printf("Caption (converged) : %.3f at ~%.0f%% CXL\n", last, ratio)
	fmt.Println("\nthe policy's page split is applied through the weighted-interleave")
	fmt.Printf("mempolicy: next allocations would go %.0f%% to CXL\n", policy.CXLPercent())
}
