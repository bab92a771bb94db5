// Package dlrm models the embedding-reduction stage of deep-learning
// recommendation inference (the MERCI setup of §3.3): each query gathers
// tens of embedding vectors from large tables and sums them — a
// bandwidth-bound, read-dominated access stream with strong popularity
// locality (a hot subset of vectors receives most lookups).
//
// The locality is what makes the paper's SNC/LLC findings first-order for
// DLRM (Table 3): the hot working set (~48 MB here) fits the socket-wide
// 60 MB LLC that CXL-homed data may use, but not the 15 MB slice partition
// that local-DDR data is confined to in SNC mode. Combined with the
// bandwidth model this reproduces the Fig. 9a thread sweep, the ~63 %-CXL
// optimum, and the Fig. 11 counter correlations.
package dlrm

import (
	"fmt"

	"cxlmem/internal/cache"
	"cxlmem/internal/mem"
	"cxlmem/internal/telemetry"
	"cxlmem/internal/topo"
	"cxlmem/internal/workloads/fluid"
)

// Config describes the embedding workload.
type Config struct {
	// HotBytes is the hot region of the embedding tables; HotFraction of
	// accesses land there.
	HotBytes int64
	// ColdBytes is the cold remainder of the tables.
	ColdBytes int64
	// HotFraction is the share of accesses to the hot region.
	HotFraction float64
	// LinesPerQuery is the number of cache lines gathered per inference
	// query (lookups × vector lines).
	LinesPerQuery int
	// ThreadMLP is the per-thread memory-level parallelism of the gather
	// loop (index computation serializes part of the stream).
	ThreadMLP float64
	// WriteFraction is the small share of traffic writing partial sums.
	WriteFraction float64
}

// DefaultConfig is calibrated so that (a) DDR-only throughput saturates past
// ~20 threads, (b) the throughput-maximizing allocation puts a substantial
// interior share (~50–65 %) of pages on CXL-A, and (c) Table 3's SNC
// scenarios land near the paper's ratios (0.947 alone, 0.504 contended).
func DefaultConfig() Config {
	return Config{
		HotBytes:      40 << 20,
		ColdBytes:     472 << 20,
		HotFraction:   0.75,
		LinesPerQuery: 160, // 80 lookups × 128-byte vectors
		ThreadMLP:     8,
		WriteFraction: 0.05,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.HotBytes <= 0 || c.ColdBytes < 0 || c.LinesPerQuery <= 0 {
		return fmt.Errorf("dlrm: invalid sizes %+v", c)
	}
	if c.HotFraction < 0 || c.HotFraction > 1 {
		return fmt.Errorf("dlrm: hot fraction %v out of [0,1]", c.HotFraction)
	}
	if c.ThreadMLP <= 0 {
		return fmt.Errorf("dlrm: non-positive MLP")
	}
	return nil
}

// hitRate returns the LLC hit probability of the access stream given an
// effective LLC capacity (the shared fluid.FootprintHitRate model).
func (c Config) hitRate(capacityBytes int64) float64 {
	return fluid.FootprintHitRate(capacityBytes, c.HotBytes, c.ColdBytes, c.HotFraction)
}

// WithTableBytes returns a copy of the config resized so the embedding
// tables total totalBytes: the hot region keeps its size (and the hot
// fraction its meaning) while the cold remainder absorbs the change. Tables
// smaller than the hot region shrink the hot region itself.
func (c Config) WithTableBytes(totalBytes int64) Config {
	if totalBytes <= 0 {
		return c
	}
	if totalBytes <= c.HotBytes {
		c.HotBytes = totalBytes
		c.ColdBytes = 0
		return c
	}
	c.ColdBytes = totalBytes - c.HotBytes
	return c
}

// ScenarioByName resolves the Table-3 scenario names used by scenario specs
// ("alone", "contended", "nosnc").
func ScenarioByName(name string) (Scenario, error) {
	switch name {
	case "alone":
		return SNCAlone, nil
	case "contended":
		return SNCContended, nil
	case "nosnc":
		return NoSNC, nil
	default:
		return 0, fmt.Errorf("dlrm: unknown scenario %q (want alone, contended or nosnc)", name)
	}
}

// Scenario selects the LLC visibility of the run (Table 3).
type Scenario int

const (
	// SNCAlone: the workload runs in one SNC node with the other three
	// idle — CXL data sees the whole 60 MB LLC, DDR data one node's 15 MB.
	SNCAlone Scenario = iota
	// SNCContended: all four SNC nodes run memory-intensive work; the CXL
	// data's socket-wide LLC share collapses toward a single node's worth
	// (Table 3, "4 SNC nodes").
	SNCContended
	// NoSNC: SNC disabled; both classes see the full LLC.
	NoSNC
)

// Result is one DLRM operating point.
type Result struct {
	// QueriesPerSec is the inference throughput.
	QueriesPerSec float64
	// Eq is the underlying bandwidth equilibrium.
	Eq fluid.Equilibrium
	// Sample is the PMU counter view for Caption (Table 4).
	Sample telemetry.Sample
}

// Run computes the steady-state throughput with cxlPercent of pages on the
// named CXL device and the given thread count.
func Run(sys *topo.System, cfg Config, cxlName string, cxlPercent float64, threads int, sc Scenario) Result {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if threads <= 0 {
		panic("dlrm: non-positive thread count")
	}
	if cxlPercent < 0 || cxlPercent > 100 {
		panic(fmt.Sprintf("dlrm: CXL percent %v out of range", cxlPercent))
	}
	ddr := sys.DDRLocal
	cxl := sys.Path(cxlName)

	ddrLLC, cxlLLC := effectiveLLC(sys, sc)
	f := cxlPercent / 100
	classes := []fluid.Class{
		{Path: ddr, Weight: 1 - f, HitRate: cfg.hitRate(ddrLLC), WriteFraction: cfg.WriteFraction},
		{Path: cxl, Weight: f, HitRate: cfg.hitRate(cxlLLC), WriteFraction: cfg.WriteFraction},
	}
	eq := fluid.Solve(classes, func(avgLatNS float64) float64 {
		return float64(threads) * cfg.ThreadMLP / avgLatNS
	}, 60)

	qps := eq.AccessRateGps * 1e9 / float64(cfg.LinesPerQuery)
	return Result{
		QueriesPerSec: qps,
		Eq:            eq,
		Sample:        sampleFrom(eq, ddr, cxlPercent),
	}
}

// effectiveLLC returns the (DDR, CXL) effective LLC capacities per scenario.
func effectiveLLC(sys *topo.System, sc Scenario) (int64, int64) {
	h := sys.Hier
	node := h.EffectiveLLCBytes(cache.Home{Kind: cache.HomeLocalDDR, Node: 0})
	all := h.EffectiveLLCBytes(cache.Home{Kind: cache.HomeRemote, Node: 0})
	switch sc {
	case SNCAlone:
		return node, all
	case SNCContended:
		// The other three nodes' working sets evict the CXL lines from
		// their slices; the CXL data keeps its own node's slices plus a
		// minor share of the contended ones.
		contended := node + (all-node)/8
		return node, contended
	case NoSNC:
		return all, all
	default:
		panic(fmt.Sprintf("dlrm: unknown scenario %d", sc))
	}
}

// sampleFrom derives the Table-4 counters from an equilibrium.
func sampleFrom(eq fluid.Equilibrium, ddr *topo.Path, cxlPercent float64) telemetry.Sample {
	// L1 miss latency: the embedding stream misses L1 essentially always,
	// so the average access latency is the L1 miss latency.
	l1 := eq.AvgLatencyNS
	ddrLat := ddr.LoadedParallelLatency(mem.Load, eq.PerClass[0].QueueFactor).Nanoseconds()
	// IPC: a gather loop retires a handful of instructions per line; CPI is
	// dominated by exposed memory latency over the thread's MLP window.
	const instrPerAccess = 8.0
	const cyclesPerNS = 2.1
	cpi := (eq.AvgLatencyNS / 3) * cyclesPerNS / instrPerAccess
	ipc := 1 / cpi
	return telemetry.Sample{
		L1MissLatencyNS:    l1,
		DDRReadLatencyNS:   ddrLat,
		IPC:                ipc,
		SystemBandwidthGBs: eq.TotalBandwidthGBs,
		CXLPercent:         cxlPercent,
	}
}

// CalibrationSweep returns the data Caption's estimator is fitted on (§6.1
// M2: "we collect CPU counter values at various DDR:CXL ratios while
// running DLRM with 24 threads"): DLRM at 24 threads on the named CXL
// device with SNC alone, at CXL ratios 0, step, 2·step, … up to 100, each
// point's counter sample and its throughput normalized to the all-DDR
// point.
func CalibrationSweep(sys *topo.System, cxlName string, step float64) (samples []telemetry.Sample, thr []float64) {
	if step <= 0 {
		panic("dlrm: non-positive step")
	}
	cfg := DefaultConfig()
	var base float64
	for r := 0.0; r <= 100; r += step {
		res := Run(sys, cfg, cxlName, r, 24, SNCAlone)
		if r == 0 {
			base = res.QueriesPerSec
		}
		samples = append(samples, res.Sample)
		thr = append(thr, res.QueriesPerSec/base)
	}
	return samples, thr
}

// BestRatio scans CXL percentages 0..100 in steps and returns the
// throughput-maximizing one.
func BestRatio(sys *topo.System, cfg Config, cxlName string, threads int, sc Scenario, step float64) (best float64, qps float64) {
	if step <= 0 {
		panic("dlrm: non-positive step")
	}
	for r := 0.0; r <= 100; r += step {
		res := Run(sys, cfg, cxlName, r, threads, sc)
		if res.QueriesPerSec > qps {
			qps = res.QueriesPerSec
			best = r
		}
	}
	return best, qps
}
