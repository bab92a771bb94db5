// Command caption demonstrates the paper's dynamic page-allocation policy
// end to end: it fits the estimator from a DLRM calibration sweep, then
// autotunes the DDR:CXL page split for a chosen workload, printing the
// controller's trajectory.
//
// Usage:
//
//	caption                 # tune a roms+mcf SPECrate mix (the paper's SPEC-Mix)
//	caption -workload dlrm  # tune DLRM embedding reduction
package main

import (
	"flag"
	"fmt"
	"os"

	"cxlmem"
	"cxlmem/internal/telemetry"
	"cxlmem/internal/topo"
	"cxlmem/internal/workloads/dlrm"
	"cxlmem/internal/workloads/spec"
)

func main() {
	workload := flag.String("workload", "spec-mix", "workload to tune: spec-mix or dlrm")
	intervals := flag.Int("intervals", 40, "tuning intervals to run")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "caption: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	if *intervals <= 0 {
		fmt.Fprintf(os.Stderr, "caption: -intervals must be positive, got %d\n", *intervals)
		flag.Usage()
		os.Exit(2)
	}

	sys := topo.NewSystem(topo.DefaultConfig())

	// Calibration sweep (§6.1 M2): DLRM at 24 threads across ratios.
	sweep, thr := dlrm.CalibrationSweep(sys, "CXL-A", 5)

	policy := cxlmem.NewPolicy(50)
	caption, err := cxlmem.NewCaption(sweep, thr, policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "caption:", err)
		os.Exit(1)
	}

	eval := makeEval(sys, *workload)
	if eval == nil {
		fmt.Fprintf(os.Stderr, "caption: unknown workload %q\n", *workload)
		os.Exit(2)
	}

	fmt.Printf("%-9s  %7s  %16s  %12s\n", "Interval", "CXL %", "Norm. throughput", "Model output")
	ratio := caption.Ratio()
	for i := 0; i < *intervals; i++ {
		m, s := eval(ratio)
		state, next, err := caption.Observe(s)
		if err != nil {
			fmt.Fprintln(os.Stderr, "caption:", err)
			os.Exit(1)
		}
		fmt.Printf("%-9d  %6.0f%%  %16.3f  %12.3f\n", i, ratio, m, state)
		ratio = next
	}
	fmt.Printf("\nconverged near %.0f%% of pages on CXL memory\n", ratio)
}

// makeEval returns a closure evaluating the workload's steady state at a
// ratio, normalized to its DDR-only throughput.
func makeEval(sys *topo.System, workload string) func(float64) (float64, telemetry.Sample) {
	switch workload {
	case "spec-mix":
		mix := []spec.Member{
			{Profile: spec.Roms, Instances: 8},
			{Profile: spec.Mcf, Instances: 8},
		}
		base := spec.Run(sys, mix, "CXL-A", 0).GIPS
		return func(r float64) (float64, telemetry.Sample) {
			res := spec.Run(sys, mix, "CXL-A", r)
			return res.GIPS / base, res.Sample
		}
	case "dlrm":
		cfg := dlrm.DefaultConfig()
		base := dlrm.Run(sys, cfg, "CXL-A", 0, 32, dlrm.SNCAlone).QueriesPerSec
		return func(r float64) (float64, telemetry.Sample) {
			res := dlrm.Run(sys, cfg, "CXL-A", r, 32, dlrm.SNCAlone)
			return res.QueriesPerSec / base, res.Sample
		}
	default:
		return nil
	}
}
