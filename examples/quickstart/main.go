// Quickstart: build the simulated CXL-ready system, compare device
// latencies, and regenerate one of the paper's figures.
package main

import (
	"fmt"
	"log"

	"cxlmem"
	"cxlmem/internal/mem"
)

func main() {
	// The paper's §5 setup: SNC mode, 2 local DDR5 channels, CXL devices.
	sys := cxlmem.NewSystem()

	fmt.Println("Serialized (pointer-chase) load latency per device:")
	for _, p := range sys.Paths() {
		fmt.Printf("  %-8s %6.1f ns (%s, %s)\n",
			p.Name, p.SerialLatency(mem.Load).Nanoseconds(),
			p.Device.Ctrl.Kind, p.Device.Tech.Name)
	}

	fmt.Println("\nKey asymmetry (O3): parallel access amortizes true CXL memory")
	fmt.Println("better than NUMA-emulated CXL memory:")
	for _, name := range []string{"DDR5-R", "CXL-A"} {
		p := sys.Path(name)
		serial := p.SerialLatency(mem.Load).Nanoseconds()
		parallel := p.ParallelLatency(mem.Load).Nanoseconds()
		fmt.Printf("  %-8s serial %6.1f ns -> parallel %5.1f ns (-%.0f%%)\n",
			name, serial, parallel, (1-parallel/serial)*100)
	}

	// Every run returns a typed dataset; Render prints its text table.
	fmt.Println("\nRegenerating Fig. 4a (bandwidth efficiency):")
	fig, err := cxlmem.RunDataset("fig4a", cxlmem.RunConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(fig.Render())

	// Beyond the fixed figures, any cell of the workload x policy x size
	// matrix is one spec string away (see examples/scenario_matrix).
	fmt.Println("\nOne scenario cell (ycsb:readmostly at a 85:15 DDR:CXL split):")
	cell, err := cxlmem.RunScenarioDataset("ycsb:readmostly/policy=weighted:85,15", cxlmem.RunConfig{Quick: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(cell.Render())
}
