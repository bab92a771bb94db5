package experiments

import (
	"cxlmem/internal/core"
	"cxlmem/internal/mem"
	"cxlmem/internal/results"
	"cxlmem/internal/stats"
	"cxlmem/internal/telemetry"
	"cxlmem/internal/topo"
	"cxlmem/internal/workloads"
	"cxlmem/internal/workloads/dlrm"
	"cxlmem/internal/workloads/spec"
)

func runAblationLLC(o Options) *results.Dataset {
	samples := workloads.ScaleOps(o.Quick, 200000)
	// Cache-mutating measurements: a private System per sweep point.
	lats := sweepPoints(o, 2, func(i int) float64 {
		cfg := topo.DefaultConfig()
		cfg.CXLBreaksSNCIsolation = i == 0
		sys := topo.NewSystem(cfg)
		return o.bufferLatencyNs(sys, sys.Path("CXL-A"), 32<<20, samples)
	})
	withBreak, without := lats[0], lats[1]

	// The same flag propagates into the DLRM LLC model via the hierarchy.
	cfgOn := topo.DefaultConfig()
	sysOn := topo.NewSystem(cfgOn)
	cfgOff := cfgOn
	cfgOff.CXLBreaksSNCIsolation = false
	sysOff := topo.NewSystem(cfgOff)
	dcfg := dlrm.DefaultConfig()
	ddr := dlrm.Run(sysOn, dcfg, "CXL-A", 0, 8, dlrm.SNCAlone).QueriesPerSec
	cxlOn := dlrm.Run(sysOn, dcfg, "CXL-A", 100, 8, dlrm.SNCAlone).QueriesPerSec
	cxlOff := dlrm.Run(sysOff, dcfg, "CXL-A", 100, 8, dlrm.SNCAlone).QueriesPerSec

	d := newDataset(o, "ablation-llc", "O6 ablation: CXL victims confined to the accessor's SNC node",
		col("Metric", ""), col("Isolation broken (hardware)", ""), col("Isolation kept (ablation)", ""))
	d.AddRow(results.Str("32MB buffer latency (ns)"), results.Num(withBreak, 1), results.Num(without, 1))
	d.AddRow(results.Str("DLRM CXL100 vs DDR100"), results.Num(cxlOn/ddr, 2), results.Num(cxlOff/ddr, 2))
	d.AddNote("without the isolation break, CXL memory loses its LLC bonus: Table 3's 0.947 parity disappears")
	return d
}

func runAblationCoherence(o Options) *results.Dataset {
	withCong := topo.NewSystem(topo.MicrobenchConfig())
	cfg := topo.MicrobenchConfig()
	cfg.CoherenceCongestion = false
	without := topo.NewSystem(cfg)

	d := newDataset(o, "ablation-coherence", "O3 ablation: remote-directory burst congestion on the UPI path",
		col("Metric", ""), col("Congestion on (hardware)", ""), col("Congestion off (ablation)", ""))
	rOn := withCong.Path("DDR5-R")
	rOff := without.Path("DDR5-R")
	aOn := withCong.Path("CXL-A")
	d.AddRow(results.Str("DDR5-R memo ld (ns)"),
		results.Num(rOn.ParallelLatency(mem.Load).Nanoseconds(), 1),
		results.Num(rOff.ParallelLatency(mem.Load).Nanoseconds(), 1))
	d.AddRow(results.Str("parallel reduction vs MLC"),
		results.Pct(1-rOn.ParallelLatency(mem.Load).Nanoseconds()/rOn.SerialLatency(mem.Load).Nanoseconds()),
		results.Pct(1-rOff.ParallelLatency(mem.Load).Nanoseconds()/rOff.SerialLatency(mem.Load).Nanoseconds()))
	d.AddRow(results.Str("CXL-A / DDR5-R memo ld"),
		results.Num(aOn.ParallelLatency(mem.Load).Nanoseconds()/rOn.ParallelLatency(mem.Load).Nanoseconds(), 2),
		results.Num(aOn.ParallelLatency(mem.Load).Nanoseconds()/rOff.ParallelLatency(mem.Load).Nanoseconds(), 2))
	d.AddNote("without congestion, emulated CXL amortizes as well as true CXL — the 76%% vs 79%% asymmetry (O3) vanishes")
	return d
}

func runAblationEstimator(o Options) *results.Dataset {
	sys := topo.NewSystem(topo.DefaultConfig())
	mix := []spec.Member{{Profile: spec.Roms, Instances: 8}, {Profile: spec.Mcf, Instances: 8}}
	base := spec.Run(sys, mix, "CXL-A", 0).GIPS
	eval := func(r float64) (float64, telemetry.Sample) {
		res := spec.Run(sys, mix, "CXL-A", r)
		return res.GIPS / base, res.Sample
	}

	// One DLRM calibration sweep feeds both estimators.
	samples, thr := dlrm.CalibrationSweep(sys, "CXL-A", 5)
	// Full Table-4 estimator.
	full, err := core.FitEstimator(samples, thr)
	if err != nil {
		panic(err)
	}
	// IPC-only estimator: zero out the latency features by refitting on the
	// same sweep with the latency counters suppressed.
	ipcOnly := make([]telemetry.Sample, len(samples))
	for i, s := range samples {
		ipcOnly[i] = telemetry.Sample{IPC: s.IPC,
			L1MissLatencyNS:  1, // constant features are excluded from the fit
			DDRReadLatencyNS: 1}
	}
	// A constant feature makes the system singular, so perturb minimally.
	for i := range ipcOnly {
		ipcOnly[i].L1MissLatencyNS = 1 + 1e-9*float64(i)
		ipcOnly[i].DDRReadLatencyNS = 1 + 1e-9*float64(i*i)
	}
	ipcEst, err := core.FitEstimator(ipcOnly, thr)
	if err != nil {
		panic(err)
	}

	run := func(est *core.Estimator, strip bool) (float64, float64) {
		eval2 := eval
		if strip {
			eval2 = func(r float64) (float64, telemetry.Sample) {
				m, s := eval(r)
				s.L1MissLatencyNS = 1
				s.DDRReadLatencyNS = 1
				return m, s
			}
		}
		_, thr, model := captionTimeline(est, eval2, 40)
		return steadyMean(thr), stats.Pearson(model, thr)
	}
	type outcome struct{ thr, pear float64 }
	outcomes := sweepPoints(o, 2, func(i int) outcome {
		if i == 0 {
			thr, pear := run(full, false)
			return outcome{thr, pear}
		}
		thr, pear := run(ipcEst, true)
		return outcome{thr, pear}
	})
	fullThr, fullPear := outcomes[0].thr, outcomes[0].pear
	ipcThr, ipcPear := outcomes[1].thr, outcomes[1].pear

	d := newDataset(o, "ablation-estimator", "Caption estimator: full Table-4 counters vs IPC only (roms+mcf)",
		col("Estimator", ""), col("Steady throughput (norm.)", "x DDR100"), col("Pearson(model, throughput)", ""))
	d.AddRow(results.Str("L1 lat + DDR lat + IPC"), results.Num(fullThr, 2), results.Num(fullPear, 2))
	d.AddRow(results.Str("IPC only"), results.Num(ipcThr, 2), results.Num(ipcPear, 2))
	d.AddNote("the latency counters capture queueing at the controllers; IPC alone is a weaker, noisier signal (§6.1)")
	return d
}
