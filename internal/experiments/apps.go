package experiments

import (
	"fmt"

	"cxlmem/internal/results"
	"cxlmem/internal/stats"
	"cxlmem/internal/topo"
	"cxlmem/internal/workloads/dlrm"
	"cxlmem/internal/workloads/dsb"
	"cxlmem/internal/workloads/fio"
	"cxlmem/internal/workloads/kvstore"
	"cxlmem/internal/workloads/ycsb"
)

func init() {
	register("fig6a", "Redis YCSB-A p99 vs target QPS for 5 DDR:CXL ratios (Fig. 6a)", runFig6a)
	register("fig6b", "DSB compose-posts p99: caching tier on DDR vs CXL (Fig. 6b)", dsbRunner("fig6b", dsb.ComposePosts, []float64{1000, 2000, 3000, 4000, 5000}))
	register("fig6c", "DSB read-user-timelines p99 (Fig. 6c)", dsbRunner("fig6c", dsb.ReadUserTimelines, []float64{5000, 15000, 25000, 35000, 40000}))
	register("fig6d", "DSB mixed-workload p99, incl. the CXL-wins window (Fig. 6d)", dsbRunner("fig6d", dsb.Mixed, []float64{2000, 5000, 8000, 9500, 11000}))
	register("fig7", "Redis: TPP vs static 25% interleave latency distribution (Fig. 7)", runFig7)
	register("fig8", "FIO p99 vs block size with page cache on DDR vs CXL (Fig. 8)", runFig8)
	register("fig9a", "DLRM throughput vs threads for 7 allocation ratios (Fig. 9a)", runFig9a)
	register("fig9b", "Redis max QPS, YCSB A/B/C/D/F x 5 ratios, normalized (Fig. 9b)", runFig9b)
	register("table2", "DSB component working sets and placement (Table 2)", runTable2)
	register("table3", "DLRM: 1 vs 4 SNC nodes, DDR vs CXL 100% (Table 3)", runTable3)
}

func kvConfig(o Options) kvstore.Config {
	cfg := kvstore.DefaultConfig()
	if o.Quick {
		cfg.Keys = 100_000
	}
	return cfg
}

func runFig6a(o Options) *results.Dataset {
	sys := topo.NewSystem(topo.DefaultConfig())
	cfg := kvConfig(o)
	ops := o.scale(40000)
	ratios := []float64{0, 25, 50, 75, 100}
	qpss := []float64{25000, 45000, 65000, 85000}

	d := newDataset(o, "fig6a", "Redis YCSB-A (uniform keys) p99 latency (us)",
		col("Target QPS", "qps"), col("DDR 100%", "us"), col("CXL 25%", "us"),
		col("CXL 50%", "us"), col("CXL 75%", "us"), col("CXL 100%", "us"))
	p99s := sweepPoints(o, len(qpss)*len(ratios), func(i int) float64 {
		q, r := qpss[i/len(ratios)], ratios[i%len(ratios)]
		s := kvstore.New(sys, cfg, "CXL-A", r)
		return s.RunOpenLoop(ycsb.WorkloadA, ycsb.Uniform, q, ops).P99.Microseconds()
	})
	for qi, q := range qpss {
		row := []results.Cell{results.Num(q, 0)}
		for ri := range ratios {
			row = append(row, results.Num(p99s[qi*len(ratios)+ri], 1))
		}
		d.AddRow(row...)
	}
	d.AddNote("paper F1: p99 grows proportionally with the CXL share; CXL 100%% is +10%%/+73%%/+105%% at 25/45/85 kQPS")
	return d
}

func dsbRunner(id string, w dsb.Workload, qpss []float64) func(Options) *results.Dataset {
	return func(o Options) *results.Dataset {
		sys := topo.NewSystem(topo.DefaultConfig())
		reqs := o.scale(20000)
		d := newDataset(o, id, fmt.Sprintf("DSB %s p99 latency (ms)", w),
			col("Target QPS", "qps"), col("DDR 100%", "ms"), col("CXL 100%", "ms"))
		p99s := sweepPoints(o, len(qpss)*2, func(i int) float64 {
			q, onCXL := qpss[i/2], i%2 == 1
			return dsb.Run(sys, w, "CXL-A", onCXL, q, reqs, o.Seed).P99.Milliseconds()
		})
		for qi, q := range qpss {
			d.AddRow(results.Num(q, 0), results.Num(p99s[qi*2], 2), results.Num(p99s[qi*2+1], 2))
		}
		d.AddNote("paper F3: ms-scale services barely notice CXL latency; the mixed workload flips in its 5-11 kQPS window")
		return d
	}
}

func runFig7(o Options) *results.Dataset {
	sys := topo.NewSystem(topo.DefaultConfig())
	cfg := kvConfig(o)
	cfg.Keys = 50_000
	// The measured window must span several TPP scan intervals (100 ms each
	// at 40 kQPS) for the migration churn to show, so the op count has a
	// floor even in quick mode.
	ops := o.scale(40000)
	if ops < 20000 {
		ops = 20000
	}
	res := kvstore.RunWithTPP(sys, cfg, "CXL-A", 40000, ops)

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

func runFig8(o Options) *results.Dataset {
	sys := topo.NewSystem(topo.DefaultConfig())
	blocks := fio.BlockSizes()
	ios := o.scale(40000)
	res := sweepPoints(o, len(blocks)*2, func(i int) fio.Result {
		path := sys.DDRLocal
		if i%2 == 1 {
			path = sys.Path("CXL-A")
		}
		return fio.Run(sys, path, fio.DefaultConfig(), blocks[i/2], ios)
	})
	var ddr, cxl []fio.Result
	for i := range blocks {
		ddr = append(ddr, res[i*2])
		cxl = append(cxl, res[i*2+1])
	}
	d := newDataset(o, "fig8", "FIO p99 latency by block size, page cache on DDR vs CXL",
		col("Block", ""), col("DDR p99 (us)", "us"), col("CXL p99 (us)", "us"),
		col("Increase", "%"), col("Hit rate", "%"))
	for i := range ddr {
		inc := (float64(cxl[i].P99)/float64(ddr[i].P99) - 1)
		d.AddRow(results.Str(fmt.Sprintf("%dK", ddr[i].BlockBytes>>10)),
			results.Num(ddr[i].P99.Microseconds(), 1), results.Num(cxl[i].P99.Microseconds(), 1),
			results.Pct(inc), results.Pct(ddr[i].HitRate))
	}
	d.AddNote("paper: ~3%% at 4K, ~4.5%% at 8K, shrinking mid-range, rising again past 128K")
	return d
}

func runFig9a(o Options) *results.Dataset {
	sys := topo.NewSystem(topo.DefaultConfig())
	cfg := dlrm.DefaultConfig()
	ratios := []float64{0, 17, 38, 50, 63, 83, 100}
	d := newDataset(o, "fig9a", "DLRM embedding-reduction throughput (M queries/s)",
		col("Threads", ""), col("DDR100", "Mq/s"), col("CXL17", "Mq/s"), col("CXL38", "Mq/s"),
		col("CXL50", "Mq/s"), col("CXL63", "Mq/s"), col("CXL83", "Mq/s"), col("CXL100", "Mq/s"))
	threads := []int{4, 8, 12, 16, 20, 24, 28, 32}
	qps := sweepPoints(o, len(threads)*len(ratios), func(i int) float64 {
		th, r := threads[i/len(ratios)], ratios[i%len(ratios)]
		return dlrm.Run(sys, cfg, "CXL-A", r, th, dlrm.SNCAlone).QueriesPerSec
	})
	for ti, th := range threads {
		row := []results.Cell{results.Int(int64(th))}
		for ri := range ratios {
			row = append(row, results.Num(qps[ti*len(ratios)+ri]/1e6, 2))
		}
		d.AddRow(row...)
	}
	best, bestQ := dlrm.BestRatio(sys, cfg, "CXL-A", 32, dlrm.SNCAlone, 1)
	base := dlrm.Run(sys, cfg, "CXL-A", 0, 32, dlrm.SNCAlone).QueriesPerSec
	d.AddNote("optimum at 32 threads: %.0f%% CXL, +%.0f%% vs DDR-only (paper: 63%%, +88%%)", best, (bestQ/base-1)*100)
	return d
}

func runFig9b(o Options) *results.Dataset {
	sys := topo.NewSystem(topo.DefaultConfig())
	cfg := kvConfig(o)
	samples := o.scale(20000)
	ratios := []float64{0, 25, 50, 75, 100}
	d := newDataset(o, "fig9b", "Redis max sustainable QPS normalized to DDR 100%",
		col("Workload", ""), col("DDR100", "x DDR100"), col("CXL25", "x DDR100"),
		col("CXL50", "x DDR100"), col("CXL75", "x DDR100"), col("CXL100", "x DDR100"))
	ws := ycsb.Workloads()
	qs := sweepPoints(o, len(ws)*len(ratios), func(i int) float64 {
		w, r := ws[i/len(ratios)], ratios[i%len(ratios)]
		return kvstore.New(sys, cfg, "CXL-A", r).MaxQPS(w, ycsb.Uniform, samples)
	})
	for wi, w := range ws {
		// ratios[0] is the DDR-100% point — the normalization base.
		base := qs[wi*len(ratios)]
		row := []results.Cell{results.Str(w.Name)}
		for ri := range ratios {
			row = append(row, results.Num(qs[wi*len(ratios)+ri]/base, 2))
		}
		d.AddRow(row...)
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
