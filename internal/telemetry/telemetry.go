// Package telemetry models the PMU counter sampling Caption relies on
// (paper §6.1, Table 4). On the real system the counters come from Intel PCM
// (pcm-latency, pcm); here the workload simulators compute the same three
// metrics from first principles each epoch:
//
//   - L1 miss latency (ns)   — the average time to resolve an L1 miss, which
//     simultaneously captures cache friendliness and queueing at the memory
//     controllers;
//   - DDR read latency (ns)  — the loaded latency of the local DDR devices;
//   - IPC                    — instructions per cycle, an aggregate measure
//     of how well the memory subsystem feeds the cores.
//
// The Sampler applies Caption's smoothing: counters are sampled on a fixed
// interval and fed through a 5-sample moving average before estimation.
package telemetry

import (
	"fmt"

	"cxlmem/internal/stats"
)

// Sample is one observation of the Table-4 counters, plus bookkeeping fields
// used by the experiments (not fed to the estimator).
type Sample struct {
	// L1MissLatencyNS is the average L1 miss resolution latency.
	L1MissLatencyNS float64
	// DDRReadLatencyNS is the loaded read latency of local DDR.
	DDRReadLatencyNS float64
	// IPC is instructions per cycle.
	IPC float64

	// SystemBandwidthGBs is the total consumed memory bandwidth (Fig. 11a);
	// informational, not an estimator feature.
	SystemBandwidthGBs float64
	// CXLPercent is the page-allocation ratio in effect when the sample was
	// taken; informational.
	CXLPercent float64
}

// Features returns the estimator input vector in Table-4 order.
func (s Sample) Features() []float64 {
	return []float64{s.L1MissLatencyNS, s.DDRReadLatencyNS, s.IPC}
}

// Sampler smooths a counter stream with per-field moving averages, matching
// Caption's "moving average of the past 5 samples for each counter" (§6.1).
type Sampler struct {
	l1, ddr, ipc, bw *stats.MovingAverage
}

// NewSampler creates a sampler with the given smoothing window.
func NewSampler(window int) *Sampler {
	if window <= 0 {
		panic(fmt.Sprintf("telemetry: non-positive window %d", window))
	}
	return &Sampler{
		l1:  stats.NewMovingAverage(window),
		ddr: stats.NewMovingAverage(window),
		ipc: stats.NewMovingAverage(window),
		bw:  stats.NewMovingAverage(window),
	}
}

// Add incorporates a raw sample and returns the smoothed view.
func (s *Sampler) Add(raw Sample) Sample {
	return Sample{
		L1MissLatencyNS:    s.l1.Add(raw.L1MissLatencyNS),
		DDRReadLatencyNS:   s.ddr.Add(raw.DDRReadLatencyNS),
		IPC:                s.ipc.Add(raw.IPC),
		SystemBandwidthGBs: s.bw.Add(raw.SystemBandwidthGBs),
		CXLPercent:         raw.CXLPercent,
	}
}
