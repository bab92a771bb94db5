// Scenario matrix: the unified workload engine. Every application model of
// the paper is an entry of one workload table, so arbitrary cells of the
// {workload x interleaving policy x working-set size} cross product are a
// one-line spec string away — no experiment code required.
package main

import (
	"fmt"
	"log"
	"strings"

	"cxlmem"
)

func main() {
	fmt.Println("Registered workloads:")
	for _, w := range cxlmem.ScenarioWorkloads() {
		fmt.Printf("  %-8s %s\n           variants: %s\n", w.Name, w.Desc, strings.Join(w.Variants, ", "))
	}

	cfg := cxlmem.RunConfig{Quick: true}

	// Single cells: spec strings compose workload:variant with knob
	// overrides (policy, size, qps, threads, ops, seed, device).
	fmt.Println("\nHand-picked cells:")
	for _, spec := range []string{
		"ycsb:readmostly/policy=weighted:85,15/size=4G",
		"dlrm/policy=cxl:63/threads=32",
		"kvstore/policy=cxl/qps=65000",
		"fio:256k/policy=cxl",
		"spec:mix/policy=interleave",
	} {
		cell, err := cxlmem.RunScenarioDataset(spec, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(cell.Render())
	}

	// The same spec again is free: matrix cells are memoized per process.
	if _, err := cxlmem.RunScenarioDataset("dlrm/policy=cxl:63/threads=32", cfg); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n(re-running a cell hits the memo cache — no recomputation)")

	// The full cross product dispatches through the parallel sweep engine;
	// see also: cxlbench -scenario all, and the matrix-apps /
	// matrix-policy / matrix-size experiment IDs.
	matrix, err := cxlmem.RunScenarioMatrixDataset(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(matrix.Render())
}
