package experiments

import (
	"fmt"
	"math"
	"strings"

	"cxlmem/internal/results"
	"cxlmem/internal/stats"
	"cxlmem/internal/topo"
	"cxlmem/internal/workloads"
	"cxlmem/internal/workloads/dlrm"
	"cxlmem/internal/workloads/dsb"
	"cxlmem/internal/workloads/fio"
	"cxlmem/internal/workloads/kvstore"
	"cxlmem/internal/workloads/ycsb"
)

// runCells evaluates an application figure's grid of scenario specs, cell(o,
// r, c) in row r, column c, on one Table-1 environment without the cell
// cache (DESIGN.md §28); specs pin the calibrated seed wherever the figure
// ignores -seed. A cell whose context ended panics its error.
func runCells(o Options, rows, cols int, cell func(o Options, r, c int) string) [][]workloads.Metrics {
	env := workloads.NewEnv()
	env.Quick, env.Ctx = o.Quick, o.Ctx
	out := make([][]workloads.Metrics, rows)
	for r := range out {
		out[r] = make([]workloads.Metrics, cols)
	}
	forEachPoint(o, rows*cols, func(i int) {
		m, err := mustScenarios([]string{cell(o, i/cols, i%cols)})[0].Run(env)
		if err != nil {
			panic(err)
		}
		out[i/cols][i%cols] = m
	})
	return out
}

// addRows adds one row per grid row: label(r), then each cell's headline
// metric at prec decimals.
func addRows(d *results.Dataset, cells [][]workloads.Metrics, label func(r int) results.Cell, prec int) {
	for r, row := range cells {
		out := []results.Cell{label(r)}
		for _, m := range row {
			out = append(out, results.Num(m.Primary().Value, prec))
		}
		d.AddRow(out...)
	}
}

var (
	fig6aQPS   = []float64{25000, 45000, 65000, 85000}
	cxlShares  = []float64{0, 25, 50, 75, 100} // fig6a's and fig9b's columns
	placements = []string{"ddr", "cxl"}
	dsbQPS     = map[string][]float64{
		"compose":  {1000, 2000, 3000, 4000, 5000},
		"readuser": {5000, 15000, 25000, 35000, 40000},
		"mixed":    {2000, 5000, 8000, 9500, 11000},
	}
	fig9aThreads = []int{4, 8, 12, 16, 20, 24, 28, 32}
	fig9aRatios  = []float64{0, 17, 38, 50, 63, 83, 100}
)

func fig6aCell(_ Options, r, c int) string {
	return fmt.Sprintf("kvstore/policy=cxl:%g/qps=%g/seed=11", cxlShares[c], fig6aQPS[r])
}

func runFig6a(o Options) *results.Dataset {
	d := newDataset(o, "fig6a", "Redis YCSB-A (uniform keys) p99 latency (us)",
		col("Target QPS", "qps"), col("DDR 100%", "us"), col("CXL 25%", "us"),
		col("CXL 50%", "us"), col("CXL 75%", "us"), col("CXL 100%", "us"))
	addRows(d, runCells(o, len(fig6aQPS), len(cxlShares), fig6aCell), func(r int) results.Cell { return results.Num(fig6aQPS[r], 0) }, 1)
	d.AddNote("paper F1: p99 grows proportionally with the CXL share; CXL 100%% is +10%%/+73%%/+105%% at 25/45/85 kQPS")
	return d
}

// dsbCell takes the run's seed: fig6b–d are the figures that read -seed.
func dsbCell(variant string) func(o Options, r, c int) string {
	return func(o Options, r, c int) string {
		return fmt.Sprintf("dsb:%s/policy=%s/qps=%g/seed=%d", variant, placements[c], dsbQPS[variant][r], o.withDefaultSeed().Seed)
	}
}

func dsbRunner(id, variant string) func(Options) *results.Dataset {
	w, err := dsb.WorkloadByName(variant)
	if err != nil {
		panic(err)
	}
	return func(o Options) *results.Dataset {
		d := newDataset(o, id, fmt.Sprintf("DSB %s p99 latency (ms)", w),
			col("Target QPS", "qps"), col("DDR 100%", "ms"), col("CXL 100%", "ms"))
		addRows(d, runCells(o, len(dsbQPS[variant]), len(placements), dsbCell(variant)), func(r int) results.Cell { return results.Num(dsbQPS[variant][r], 0) }, 2)
		d.AddNote("paper F3: ms-scale services barely notice CXL latency; the mixed workload flips in its 5-11 kQPS window")
		return d
	}
}

func runFig7(o Options) *results.Dataset {
	sys := topo.NewSystem(topo.DefaultConfig())
	cfg := kvstore.DefaultConfig()
	cfg.Keys = 50_000
	// The measured window must span several TPP scan intervals (100 ms each
	// at 40 kQPS) for the migration churn to show, so the op count has a
	// floor even in quick mode.
	ops := max(workloads.ScaleOps(o.Quick, 40000), 20000)
	res, err := kvstore.RunWithTPP(o.context(), sys, cfg, "CXL-A", 40000, ops)
	if err != nil {
		panic(err)
	}

	d := newDataset(o, "fig7", "Redis latency: TPP vs statically interleaving 25% of pages to CXL",
		col("Percentile", ""), col("TPP (us)", "us"), col("Static 25% (us)", "us"))
	for _, p := range []float64{50, 90, 99} {
		d.AddRow(results.Str(fmt.Sprintf("p%.0f", p)),
			results.Num(stats.PercentileSorted(res.TPP.Latencies, p)/1000, 1),
			results.Num(stats.PercentileSorted(res.Static.Latencies, p)/1000, 1))
	}
	d.AddRow(results.Str("migrations"), results.Int(int64(res.Migrations)), results.Int(0))
	ratio := float64(res.TPP.P99) / float64(res.Static.P99)
	d.AddNote("TPP/static p99 = %.2fx (paper: 2.74x / +174%%) — migration stalls hurt us-scale apps (F2)", ratio)
	return d
}

func fig8Cell(_ Options, r, c int) string {
	return fmt.Sprintf("fio:%dk/policy=%s/seed=17", fio.BlockSizes()[r]>>10, placements[c])
}

func runFig8(o Options) *results.Dataset {
	d := newDataset(o, "fig8", "FIO p99 latency by block size, page cache on DDR vs CXL",
		col("Block", ""), col("DDR p99 (us)", "us"), col("CXL p99 (us)", "us"),
		col("Increase", "%"), col("Hit rate", "%"))
	for r, row := range runCells(o, len(fio.BlockSizes()), len(placements), fig8Cell) {
		ddr, cxl := row[0].Primary().Value, row[1].Primary().Value // p99_us
		inc := math.Round(cxl*1e6)/math.Round(ddr*1e6) - 1         // over whole picoseconds
		d.AddRow(results.Str(fmt.Sprintf("%dK", fio.BlockSizes()[r]>>10)),
			results.Num(ddr, 1), results.Num(cxl, 1), results.Pct(inc), results.Pct(row[0].Items[1].Value)) // hit_rate
	}
	d.AddNote("paper: ~3%% at 4K, ~4.5%% at 8K, shrinking mid-range, rising again past 128K")
	return d
}

func fig9aCell(_ Options, r, c int) string {
	return fmt.Sprintf("dlrm/policy=cxl:%g/threads=%d", fig9aRatios[c], fig9aThreads[r])
}

func runFig9a(o Options) *results.Dataset {
	d := newDataset(o, "fig9a", "DLRM embedding-reduction throughput (M queries/s)",
		col("Threads", ""), col("DDR100", "Mq/s"), col("CXL17", "Mq/s"), col("CXL38", "Mq/s"),
		col("CXL50", "Mq/s"), col("CXL63", "Mq/s"), col("CXL83", "Mq/s"), col("CXL100", "Mq/s"))
	addRows(d, runCells(o, len(fig9aThreads), len(fig9aRatios), fig9aCell), func(r int) results.Cell { return results.Int(int64(fig9aThreads[r])) }, 2)
	sys := topo.NewSystem(topo.DefaultConfig())
	cfg := dlrm.DefaultConfig()
	best, bestQ := dlrm.BestRatio(sys, cfg, "CXL-A", 32, dlrm.SNCAlone, 1)
	base := dlrm.Run(sys, cfg, "CXL-A", 0, 32, dlrm.SNCAlone).QueriesPerSec
	d.AddNote("optimum at 32 threads: %.0f%% CXL, +%.0f%% vs DDR-only (paper: 63%%, +88%%)", best, (bestQ/base-1)*100)
	return d
}

func fig9bCell(_ Options, r, c int) string {
	return fmt.Sprintf("ycsb:%s/policy=cxl:%g/seed=11", strings.ToLower(ycsb.Workloads()[r].Name), cxlShares[c])
}

func runFig9b(o Options) *results.Dataset {
	d := newDataset(o, "fig9b", "Redis max sustainable QPS normalized to DDR 100%",
		col("Workload", ""), col("DDR100", "x DDR100"), col("CXL25", "x DDR100"),
		col("CXL50", "x DDR100"), col("CXL75", "x DDR100"), col("CXL100", "x DDR100"))
	for r, row := range runCells(o, len(ycsb.Workloads()), len(cxlShares), fig9bCell) {
		cells := []results.Cell{results.Str(ycsb.Workloads()[r].Name)}
		for _, m := range row {
			cells = append(cells, results.Num(m.Items[1].Value, 2)) // vs_ddr
		}
		d.AddRow(cells...)
	}
	d.AddNote("paper: YCSB-A loses 8/15/22/30%% at 25/50/75/100%% CXL; read-only C is least sensitive")
	return d
}

func runTable2(o Options) *results.Dataset {
	d := newDataset(o, "table2", "DSB social-network components (Table 2)",
		col("Component", ""), col("Working set", ""), col("Intensiveness", ""), col("Allocated memory", ""))
	d.AddRow(results.Str("Frontend"), results.Str("83 MB"), results.Str("Compute"), results.Str("DDR memory"))
	d.AddRow(results.Str("Logic"), results.Str("208 MB"), results.Str("Compute"), results.Str("DDR memory"))
	d.AddRow(results.Str("Caching & Storage"), results.Str("628 MB"), results.Str("Memory"), results.Str("CXL memory"))
	return d
}

func runTable3(o Options) *results.Dataset {
	sys := topo.NewSystem(topo.DefaultConfig())
	cfg := dlrm.DefaultConfig()
	const threads = 8
	ddrAlone := dlrm.Run(sys, cfg, "CXL-A", 0, threads, dlrm.SNCAlone).QueriesPerSec
	cxlAlone := dlrm.Run(sys, cfg, "CXL-A", 100, threads, dlrm.SNCAlone).QueriesPerSec
	ddrCont := dlrm.Run(sys, cfg, "CXL-A", 0, threads, dlrm.SNCContended).QueriesPerSec
	cxlCont := dlrm.Run(sys, cfg, "CXL-A", 100, threads, dlrm.SNCContended).QueriesPerSec

	d := newDataset(o, "table3", "DLRM throughput, normalized to 1-SNC-node DDR 100%",
		col("Scenario", ""), col("DDR 100%", "x base"), col("CXL 100%", "x base"))
	d.AddRow(results.Str("1 SNC node"), results.Num(ddrAlone/ddrAlone, 2), results.Num(cxlAlone/ddrAlone, 2))
	d.AddRow(results.Str("4 SNC nodes"), results.Num(ddrCont/ddrAlone, 2), results.Num(cxlCont/ddrAlone, 2))
	d.AddNote("paper: 1 / 0.947 / 1 / 0.504 — contention for the shared slices erases the CXL LLC bonus")
	return d
}
