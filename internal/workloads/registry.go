// The workload registry: the single place experiment drivers, the scenario
// engine and the cxlbench command discover runnable application models. It
// is one table, fixed at compile time; a new workload is a new entry.
package workloads

import (
	"fmt"
	"slices"
	"strings"
)

// registry lists every workload, sorted by name.
var registry = []Workload{
	{
		Name:     "dlrm",
		Desc:     "DLRM embedding-reduction throughput under an SNC scenario (Fig. 9a, Table 3)",
		Variants: dlrmVariants,
		Defaults: Config{Variant: "alone", Device: "CXL-A", CXLPercent: 63, Threads: 32},
		Run:      runDLRM,
	},
	{
		Name:     "dsb",
		Desc:     "DeathStarBench request pipeline p99 with the caching tier on DDR or CXL (Fig. 6b-d)",
		Variants: dsbVariants,
		// The caching tier moves to CXL for any positive CXLPercent: the
		// paper evaluates only the all-or-nothing tier placement (Table 2).
		Defaults: Config{Variant: "mixed", Device: "CXL-A", CXLPercent: 100, TargetQPS: 8000, Ops: 20000},
		Run:      runDSB,
	},
	{
		Name:     "fio",
		Desc:     "FIO random-read p99 with the page cache on DDR or CXL memory (Fig. 8)",
		Variants: fioVariants,
		// The page cache moves to CXL for any positive CXLPercent; SizeBytes
		// resizes the page cache.
		Defaults: Config{Variant: "4k", Device: "CXL-A", CXLPercent: 100, Ops: 40000},
		Run:      runFIO,
	},
	{
		Name:     "fluid",
		Desc:     "raw bandwidth-equilibrium stream split across DDR and CXL (Fig. 11a feedback loop)",
		Variants: fluidVariants,
		// SizeBytes is the streamed working set.
		Defaults: Config{Variant: "stream", Device: "CXL-A", CXLPercent: 50, SizeBytes: 256 << 20, Threads: 16},
		Run:      runFluid,
	},
	{
		Name:     "kvstore",
		Desc:     "Redis under open-loop YCSB-A load: p50/p99 latency and utilization (Fig. 6a)",
		Variants: kvstoreVariants,
		Defaults: Config{Variant: "uniform", Device: "CXL-A", CXLPercent: 50, TargetQPS: 45000, Ops: 40000},
		Run:      runKVStore,
	},
	{
		Name:     "spec",
		Desc:     "SPECrate CPU2017 surrogate throughput for a benchmark or the 4-way mix (Fig. 13)",
		Variants: specVariants,
		// Threads is the total instance count, split evenly across the mix
		// members.
		Defaults: Config{Variant: "mix", Device: "CXL-A", CXLPercent: 50, Threads: 8},
		Run:      runSPEC,
	},
	{
		Name:     "tpp-timeline",
		Desc:     "event-driven TPP migration timeline under bursty open-loop load (Fig. 7 mechanism, over time)",
		Variants: timelineVariants,
		// CXLPercent is the *initial* far-tier share (the Fig. 7 cold start
		// puts everything far), TargetQPS the base rate, and Ops the epoch
		// count on the 5 ms sampling grid. Ops=200 holds in quick mode too:
		// it overrides the 30 epochs of tpptimeline.Config.Quick, so a quick
		// run (the tpp-timeline experiment, cxlbench -quick, cxlserve
		// -quick) keeps Quick's 2048 pages but simulates the full 1 s
		// horizon, about 150k arrivals, not 150 ms.
		Defaults: Config{Variant: "bursty", Device: "CXL-A", CXLPercent: 100, TargetQPS: 50_000, Ops: 200},
		Run:      runTimeline,
		Trace:    traceTimeline,
	},
	{
		Name:     "ycsb",
		Desc:     "Redis max sustainable QPS for a YCSB core workload mix (Fig. 9b)",
		Variants: ycsbVariants,
		Defaults: Config{Variant: "a", Device: "CXL-A", CXLPercent: 50, Ops: 20000},
		Run:      runYCSB,
	},
}

// Get returns the workload with the given name.
func Get(name string) (Workload, error) {
	for _, w := range registry {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workloads: unknown workload %q (registered: %s)",
		name, strings.Join(Names(), ", "))
}

// All returns every workload sorted by name.
func All() []Workload { return slices.Clone(registry) }

// Names returns the workload names, sorted.
func Names() []string {
	names := make([]string, len(registry))
	for i, w := range registry {
		names[i] = w.Name
	}
	return names
}

// Catalog renders the registry as markdown table rows (one per workload:
// name, variants, default knobs, description) — the generated scenario
// catalog embedded in EXPERIMENTS.md. Regenerate with
//
//	go run ./cmd/cxlbench -scenario list
func Catalog() string {
	var b strings.Builder
	b.WriteString("| Workload | Variants | Default knobs | Models |\n")
	b.WriteString("|----------|----------|---------------|--------|\n")
	for _, w := range registry {
		cfg := w.Defaults
		knobs := []string{fmt.Sprintf("cxl=%g%%", cfg.CXLPercent)}
		if cfg.SizeBytes > 0 {
			knobs = append(knobs, "size="+FormatBytes(cfg.SizeBytes))
		}
		if cfg.TargetQPS > 0 {
			knobs = append(knobs, fmt.Sprintf("qps=%g", cfg.TargetQPS))
		}
		if cfg.Threads > 0 {
			knobs = append(knobs, fmt.Sprintf("threads=%d", cfg.Threads))
		}
		if cfg.Ops > 0 {
			knobs = append(knobs, fmt.Sprintf("ops=%d", cfg.Ops))
		}
		fmt.Fprintf(&b, "| `%s` | %s | `%s` | %s |\n",
			w.Name, strings.Join(w.Variants, ", "), strings.Join(knobs, " "), w.Desc)
	}
	return b.String()
}
