package experiments

import (
	"fmt"

	"cxlmem/internal/core"
	"cxlmem/internal/results"
	"cxlmem/internal/stats"
	"cxlmem/internal/telemetry"
	"cxlmem/internal/topo"
	"cxlmem/internal/workloads"
	"cxlmem/internal/workloads/dlrm"
	"cxlmem/internal/workloads/spec"
)

func runTable4(o Options) *results.Dataset {
	d := newDataset(o, "table4", "CPU counters pertinent to memory-subsystem performance",
		col("Metric", ""), col("Tool", ""), col("Description", ""))
	d.AddRow(results.Str("L1 miss latency"), results.Str("pcm-latency"), results.Str("Average L1 miss latency (ns)"))
	d.AddRow(results.Str("DDR read latency"), results.Str("pcm-latency"), results.Str("DDR read latency (ns)"))
	d.AddRow(results.Str("IPC"), results.Str("pcm"), results.Str("Instructions per cycle"))
	d.AddNote("simulated equivalents are computed by the workload models (internal/telemetry)")
	return d
}

// fitDLRMEstimator builds the paper's estimator.
func fitDLRMEstimator(sys *topo.System) *core.Estimator {
	samples, thr := dlrm.CalibrationSweep(sys, "CXL-A", 5)
	est, err := core.FitEstimator(samples, thr)
	if err != nil {
		panic(err)
	}
	return est
}

func runFig11a(o Options) *results.Dataset {
	sys := topo.NewSystem(topo.DefaultConfig())
	samples, thr := dlrm.CalibrationSweep(sys, "CXL-A", 10)
	d := newDataset(o, "fig11a", "DLRM normalized throughput vs consumed system bandwidth",
		col("CXL %", "%"), col("System BW (GB/s)", "GB/s"), col("Norm. throughput", "x DDR100"))
	for i, s := range samples {
		d.AddRow(results.Num(s.CXLPercent, 0), results.Num(s.SystemBandwidthGBs, 1), results.Num(thr[i], 2))
	}
	d.AddNote("paper: throughput rises with consumed bandwidth until queueing at the controllers reverses it")
	return d
}

func runFig11b(o Options) *results.Dataset {
	sys := topo.NewSystem(topo.DefaultConfig())
	samples, thr := dlrm.CalibrationSweep(sys, "CXL-A", 10)
	d := newDataset(o, "fig11b", "DLRM normalized throughput vs L1 miss latency",
		col("CXL %", "%"), col("L1 miss latency (ns)", "ns"), col("Norm. throughput", "x DDR100"))
	var lats []float64
	for i, s := range samples {
		d.AddRow(results.Num(s.CXLPercent, 0), results.Num(s.L1MissLatencyNS, 1), results.Num(thr[i], 2))
		lats = append(lats, s.L1MissLatencyNS)
	}
	d.AddNote("Pearson(L1 miss latency, throughput) = %.2f (paper: strongly inverse)", stats.Pearson(lats, thr))
	return d
}

func runFig12a(o Options) *results.Dataset {
	sys := topo.NewSystem(topo.DefaultConfig())
	est := fitDLRMEstimator(sys)
	cfg := dlrm.DefaultConfig()
	base := dlrm.Run(sys, cfg, "CXL-A", 0, 24, dlrm.SNCAlone).QueriesPerSec

	// The paper sweeps the ratio as a staircase (9/23/33/41/47%) and plots
	// measured throughput against the estimator's output.
	stair := []float64{9, 23, 33, 41, 47}
	const perStep = 6
	var thr, model []float64
	d := newDataset(o, "fig12a", "DLRM: measured throughput vs Caption model output over a ratio staircase",
		col("Interval", ""), col("CXL %", "%"), col("Norm. throughput", "x DDR100"),
		col("Model output", ""), col("Pearson so far", ""))
	// The staircase steps are independent operating points; only the
	// smoothing sampler below is sequential.
	stairRes := sweepPoints(o, len(stair), func(i int) dlrm.Result {
		return dlrm.Run(sys, cfg, "CXL-A", stair[i], 24, dlrm.SNCAlone)
	})
	sampler := telemetry.NewSampler(core.MonitorWindow)
	i := 0
	for si, r := range stair {
		res := stairRes[si]
		for k := 0; k < perStep; k++ {
			smoothed := sampler.Add(res.Sample)
			m := est.Estimate(smoothed)
			thr = append(thr, res.QueriesPerSec/base)
			model = append(model, m)
			pear := 0.0
			if len(thr) > 2 {
				pear = stats.Pearson(model, thr)
			}
			d.AddRow(results.Int(int64(i)), results.Num(r, 0), results.Num(thr[len(thr)-1], 2),
				results.Num(m, 2), results.Num(pear, 2))
			i++
		}
	}
	d.AddNote("final Pearson = %.2f (paper: mostly positive — direction is what Algorithm 1 needs)", stats.Pearson(model, thr))
	return d
}

// captionTimeline drives a Caption controller against a workload evaluated
// at the controller's ratio each interval. eval returns the measured
// throughput (any consistent unit) and the raw counter sample.
func captionTimeline(est *core.Estimator, eval func(ratio float64) (float64, telemetry.Sample), intervals int) (ratios, thr, model []float64) {
	ctl := core.NewController(est, core.DefaultTunerConfig(), func(float64) error { return nil })
	ratio := ctl.Ratio()
	for i := 0; i < intervals; i++ {
		m, s := eval(ratio)
		state, next, err := ctl.Step(s)
		if err != nil {
			panic(err)
		}
		ratios = append(ratios, ratio)
		thr = append(thr, m)
		model = append(model, state)
		ratio = next
	}
	return ratios, thr, model
}

func steadyMean(xs []float64) float64 {
	tail := xs[len(xs)/2:]
	return stats.Mean(tail)
}

func runFig12b(o Options) *results.Dataset {
	sys := topo.NewSystem(topo.DefaultConfig())
	est := fitDLRMEstimator(sys)
	mix := []spec.Member{{Profile: spec.Roms, Instances: 8}, {Profile: spec.Mcf, Instances: 8}}
	base := spec.Run(sys, mix, "CXL-A", 0).GIPS

	ratios, thr, model := captionTimeline(est, func(r float64) (float64, telemetry.Sample) {
		res := spec.Run(sys, mix, "CXL-A", r)
		return res.GIPS / base, res.Sample
	}, 40)

	d := newDataset(o, "fig12b", "Caption autotuning SPEC-Mix (roms+mcf): ratio, throughput, model output",
		col("Interval", ""), col("CXL %", "%"), col("Norm. throughput", "x DDR100"), col("Model output", ""))
	for i := range ratios {
		d.AddRow(results.Int(int64(i)), results.Num(ratios[i], 0), results.Num(thr[i], 2), results.Num(model[i], 2))
	}
	d.AddNote("Pearson(model, throughput) = %.2f; steady-state ratio %.0f%% (paper converges to 29-41%%)",
		stats.Pearson(model, thr), steadyMean(ratios))
	return d
}

// fig13Case evaluates one benchmark/mix at a ratio: returns throughput in
// its own unit plus the counter sample.
type fig13Case struct {
	name string
	eval func(ratio float64) (float64, telemetry.Sample)
}

func fig13Cases(sys *topo.System, o Options) []fig13Case {
	specCase := func(name string, members []spec.Member) fig13Case {
		return fig13Case{name: name, eval: func(r float64) (float64, telemetry.Sample) {
			res := spec.Run(sys, members, "CXL-A", r)
			return res.GIPS, res.Sample
		}}
	}
	cases := []fig13Case{
		specCase("fotonik3d", []spec.Member{{Profile: spec.Fotonik3d, Instances: 16}}),
		specCase("mcf", []spec.Member{{Profile: spec.Mcf, Instances: 16}}),
		specCase("cactuBSSN", []spec.Member{{Profile: spec.CactuBSSN, Instances: 16}}),
		specCase("roms", []spec.Member{{Profile: spec.Roms, Instances: 16}}),
		specCase("roms+mcf", []spec.Member{{Profile: spec.Roms, Instances: 8}, {Profile: spec.Mcf, Instances: 8}}),
		specCase("roms+cactu", []spec.Member{{Profile: spec.Roms, Instances: 8}, {Profile: spec.CactuBSSN, Instances: 8}}),
	}

	// Redis+DLRM: geometric mean of each component's normalized throughput
	// (the paper's combined metric), with DLRM's counters dominating the
	// sample (it is the bandwidth-intensive partner). Redis's half is the
	// ycsb:a cell's vs_ddr, its max QPS over the all-DDR one.
	env := &workloads.Env{Sys: sys, Platform: topo.DefaultPlatform, Quick: o.Quick, Ctx: o.Ctx}
	dlrmCfg := dlrm.DefaultConfig()
	dlrmBase := dlrm.Run(sys, dlrmCfg, "CXL-A", 0, 16, dlrm.SNCAlone).QueriesPerSec
	cases = append(cases, fig13Case{name: "Redis+DLRM", eval: func(r float64) (float64, telemetry.Sample) {
		redis, err := mustScenarios([]string{fmt.Sprintf("ycsb:a/policy=cxl:%g/ops=8000/seed=11", r)})[0].Run(env)
		if err != nil {
			panic(err)
		}
		dres := dlrm.Run(sys, dlrmCfg, "CXL-A", r, 16, dlrm.SNCAlone)
		g := stats.GeoMean([]float64{redis.Items[1].Value, dres.QueriesPerSec / dlrmBase}) // vs_ddr
		return g, dres.Sample
	}})
	return cases
}

func runFig13(o Options) *results.Dataset {
	sys := topo.NewSystem(topo.DefaultConfig())
	est := fitDLRMEstimator(sys)

	d := newDataset(o, "fig13", "Throughput normalized to the default 50:50 static policy",
		col("Benchmark", ""), col("DDR 100:0", "x 50:50"), col("50:50", "x 50:50"),
		col("Caption", "x 50:50"), col("Caption ratio", "%"))
	// Each benchmark row — two static policies plus a 40-interval Caption
	// timeline — is an independent sweep point; only the timeline's control
	// loop is inherently sequential.
	cases := fig13Cases(sys, o)
	rows := sweepPoints(o, len(cases), func(i int) []results.Cell {
		c := cases[i]
		ddr, _ := c.eval(0)
		half, _ := c.eval(50)
		ratios, thr, _ := captionTimeline(est, c.eval, 40)
		capThr := steadyMean(thr)
		capRatio := steadyMean(ratios)
		return []results.Cell{results.Str(c.name), results.Num(ddr/half, 2), results.Num(half/half, 2),
			results.Num(capThr/half, 2), results.PctPoints(capRatio, 0)}
	})
	for _, row := range rows {
		d.AddRow(row...)
	}
	d.AddNote("paper: Caption beats the best static policy by 19/18/8/20%% (singles) and 24/1/4%% (mixes), allocating 29-41%% to CXL")
	return d
}
