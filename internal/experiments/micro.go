package experiments

import (
	"cxlmem/internal/mem"
	"cxlmem/internal/memo"
	"cxlmem/internal/mlc"
	"cxlmem/internal/results"
	"cxlmem/internal/topo"
	"cxlmem/internal/workloads"
)

func runTable1(o Options) *results.Dataset {
	sys := topo.NewSystem(topo.MicrobenchConfig())
	d := newDataset(o, "table1", "System configurations",
		col("Device", ""), col("CXL IP", ""), col("Memory technology", ""),
		col("Channels", ""), col("Peak GB/s", "GB/s"), col("Capacity GiB", "GiB"))
	for _, p := range sys.Paths() {
		dev := p.Device
		d.AddRow(results.Str(dev.Name), results.Str(dev.Ctrl.Kind.String()), results.Str(dev.Tech.Name),
			results.Int(int64(dev.Channels)), results.Num(dev.PeakGBs(), 1),
			results.Int(dev.CapacityBytes>>30))
	}
	d.AddNote("2x Intel Xeon 6430 (SPR) model: 32 cores, 60 MB LLC, SNC-4 capable, 2.1 GHz")
	return d
}

func runFig3(o Options) *results.Dataset {
	sys := topo.NewSystem(topo.MicrobenchConfig())
	cfg := memo.DefaultConfig()
	cfg.Trials = workloads.ScaleOps(o.Quick, cfg.Trials)

	// Baselines: DDR5-L measured by each tool.
	mlcBase := sys.DDRLocal.SerialLatency(mem.Load).Nanoseconds()
	memoBase := map[mem.InstrType]float64{}
	for _, ty := range mem.InstrTypes() {
		memoBase[ty] = memo.InstrLatency(sys.DDRLocal, ty, cfg).Nanoseconds()
	}

	d := newDataset(o, "fig3", "Random access latency normalized to DDR5-L (per measurement tool)",
		col("Device", ""), col("MLC", "x DDR5-L"), col("memo ld", "x DDR5-L"),
		col("memo nt-ld", "x DDR5-L"), col("memo st", "x DDR5-L"), col("memo nt-st", "x DDR5-L"))
	paths := sys.ComparisonPaths()
	rows := sweepPoints(o, len(paths), func(i int) []results.Cell {
		p := paths[i]
		row := []results.Cell{results.Str(p.Name), results.Num(p.SerialLatency(mem.Load).Nanoseconds()/mlcBase, 2)}
		for _, ty := range mem.InstrTypes() {
			v := memo.InstrLatency(p, ty, cfg).Nanoseconds()
			row = append(row, results.Num(v/memoBase[ty], 2))
		}
		return row
	})
	for _, row := range rows {
		d.AddRow(row...)
	}
	d.AddNote("absolute DDR5-L: MLC %.1f ns; memo ld %.1f ns", mlcBase, memoBase[mem.Load])
	d.AddNote("paper: memo cuts DDR5-R latency 76%% and CXL-A 79%% vs MLC; CXL-A ld ~1.35x DDR5-R; CXL-B ~2x, CXL-C ~3x")
	return d
}

func runFig4a(o Options) *results.Dataset {
	sys := topo.NewSystem(topo.MicrobenchConfig())
	d := newDataset(o, "fig4a", "MLC bandwidth efficiency (fraction of theoretical peak)",
		col("Device", ""), col("All read", "%"), col("3:1-RW", "%"), col("2:1-RW", "%"), col("1:1-RW", "%"))
	paths := sys.ComparisonPaths()
	rows := sweepPoints(o, len(paths), func(i int) []results.Cell {
		sweep := mlc.MixSweep(paths[i])
		row := []results.Cell{results.Str(paths[i].Name)}
		for _, m := range mem.MixPoints() {
			row = append(row, results.Pct(sweep[m].Efficiency))
		}
		return row
	})
	for _, row := range rows {
		d.AddRow(row...)
	}
	d.AddNote("paper O4: all-read 70/46/47/20%%; CXL-A overtakes DDR5-R as the write share grows (+23 pts at 2:1)")
	return d
}

func runFig4b(o Options) *results.Dataset {
	sys := topo.NewSystem(topo.MicrobenchConfig())
	d := newDataset(o, "fig4b", "memo bandwidth efficiency per instruction type",
		col("Device", ""), col("ld", "%"), col("nt-ld", "%"), col("st", "%"), col("nt-st", "%"))
	paths := sys.ComparisonPaths()
	rows := sweepPoints(o, len(paths), func(i int) []results.Cell {
		bw := memo.AllBandwidths(paths[i])
		row := []results.Cell{results.Str(paths[i].Name)}
		for _, ty := range mem.InstrTypes() {
			row = append(row, results.Pct(bw[ty].Efficiency))
		}
		return row
	})
	for _, row := range rows {
		d.AddRow(row...)
	}
	d.AddNote("paper O5: st drops vs ld by 74/31/59/15%%; CXL-A st beats DDR5-R st by ~12 pts; nt-st gap shrinks to ~6 pts")
	return d
}

func runFig5(o Options) *results.Dataset {
	const buf = 32 << 20
	samples := workloads.ScaleOps(o.Quick, 200000)
	// Each measurement mutates its system's cache state, so every sweep
	// point builds a private System.
	devices := []string{"DDR5-L", "CXL-A"}
	lats := sweepPoints(o, len(devices), func(i int) float64 {
		sys := topo.NewSystem(topo.DefaultConfig()) // SNC on
		return o.bufferLatencyNs(sys, sys.Path(devices[i]), buf, samples)
	})
	ddr, cxl := lats[0], lats[1]

	d := newDataset(o, "fig5", "SNC mode: average latency of a 32 MB random buffer",
		col("Placement", ""), col("Avg latency (ns)", "ns"), col("Effective LLC", ""))
	d.AddRow(results.Str("DDR5-L (SNC-confined)"), results.Num(ddr, 1), results.Str("15 MB (node slices)"))
	d.AddRow(results.Str("CXL-A (isolation broken)"), results.Num(cxl, 1), results.Str("60 MB (all slices)"))
	d.AddNote("paper §4.3: 76.8 ns vs 41 ns — CXL-homed data enjoys 2-4x the LLC in SNC mode (O6)")
	return d
}
