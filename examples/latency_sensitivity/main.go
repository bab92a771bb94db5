// Latency sensitivity: the paper's cautionary result (§5.1, Fig. 6a/7).
// µs-scale applications (Redis) pay for every page on CXL memory, and an
// intelligent migration policy (TPP) makes the tail *worse* than a static
// split because migrations stall the event loop.
package main

import (
	"context"
	"fmt"
	"log"

	"cxlmem"
	"cxlmem/internal/workloads/kvstore"
	"cxlmem/internal/workloads/ycsb"
)

func main() {
	sys := cxlmem.NewSystem()
	cfg := kvstore.DefaultConfig()
	cfg.Keys = 200_000

	fmt.Println("Redis + YCSB-A (uniform keys): p99 latency vs CXL page share")
	fmt.Printf("%10s", "QPS")
	ratios := []float64{0, 25, 50, 75, 100}
	for _, r := range ratios {
		fmt.Printf("  %8.0f%%", r)
	}
	fmt.Println()
	for _, qps := range []float64{25000, 45000, 65000, 85000} {
		fmt.Printf("%10.0f", qps)
		for _, r := range ratios {
			s := kvstore.New(sys, cfg, "CXL-A", r)
			res, err := s.RunOpenLoop(context.Background(), ycsb.WorkloadA, ycsb.Uniform, qps, 30000)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %7.1fus", res.P99.Microseconds())
		}
		fmt.Println()
	}

	fmt.Println("\nTPP vs static 25% interleave (Fig. 7):")
	cfg.Keys = 50_000
	res, err := kvstore.RunWithTPP(context.Background(), sys, cfg, "CXL-A", 40000, 40000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  static 25%%: p99 = %7.1f us\n", res.Static.P99.Microseconds())
	fmt.Printf("  TPP       : p99 = %7.1f us  (%d migrations during the run)\n",
		res.TPP.P99.Microseconds(), res.Migrations)
	fmt.Printf("  TPP is %.2fx worse — migration stalls dominate (finding F2)\n",
		float64(res.TPP.P99)/float64(res.Static.P99))
}
