// Package dsb models the DeathStarBench social-network microservice suite
// (§3.3, Table 2, Fig. 6b–d): a three-tier request pipeline of
//
//	frontend (nginx, 83 MB, compute-bound)  →
//	logic    (ML inference & business logic, 208 MB, compute-bound)  →
//	caching & storage (memcached/mongodb, 628 MB, memory-bound)
//
// The paper places 100 % of the caching & storage tier's pages on either DDR
// or CXL memory while keeping the latency-critical frontend/logic tiers on
// DDR, and finds (F3) that ms-scale applications barely notice CXL's longer
// latency — and that the bandwidth-hungry "mixed" workload actually *wins*
// with CXL in its 5–11 kQPS window because the caching traffic stops
// competing with the other tiers for DDR bandwidth.
package dsb

import (
	"fmt"

	"cxlmem/internal/mem"
	"cxlmem/internal/sim"
	"cxlmem/internal/stats"
	"cxlmem/internal/topo"
)

// Tier identifies a pipeline stage.
type Tier int

const (
	// Frontend is the nginx/web tier.
	Frontend Tier = iota
	// Logic is the business-logic / ML tier.
	Logic
	// Caching is the caching & storage tier.
	Caching
	numTiers
)

// String names the tier as in Table 2.
func (t Tier) String() string {
	switch t {
	case Frontend:
		return "Frontend"
	case Logic:
		return "Logic"
	case Caching:
		return "Caching & Storage"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// TierSpec is the Table-2 description of one component.
type TierSpec struct {
	// WorkingSetMB is the component's footprint (Table 2).
	WorkingSetMB int
	// Servers is the worker parallelism of the tier.
	Servers int
	// BaseService is the tier's compute service time per request.
	BaseService sim.Time
	// MemAccesses is the number of serialized memory accesses per request
	// that hit the tier's working set beyond the caches.
	MemAccesses int
	// BytesPerReq is the tier's streaming memory traffic per request
	// (feeds the bandwidth-contention model).
	BytesPerReq int64
}

// Workload selects one of the evaluated request types.
type Workload int

const (
	// ComposePosts writes new posts (Fig. 6b).
	ComposePosts Workload = iota
	// ReadUserTimelines reads user timelines (Fig. 6c).
	ReadUserTimelines
	// Mixed is 10% compose / 30% read-user / 60% read-home (Fig. 6d) — the
	// bandwidth-intensive one (~32 GB/s at saturation).
	Mixed
)

// String names the workload.
func (w Workload) String() string {
	switch w {
	case ComposePosts:
		return "compose posts"
	case ReadUserTimelines:
		return "read user timelines"
	case Mixed:
		return "mixed workloads"
	default:
		return fmt.Sprintf("Workload(%d)", int(w))
	}
}

// WorkloadByName resolves the scenario-spec names: "compose" (Fig. 6b),
// "readuser" (Fig. 6c) and "mixed" (Fig. 6d).
func WorkloadByName(name string) (Workload, error) {
	switch name {
	case "compose":
		return ComposePosts, nil
	case "readuser":
		return ReadUserTimelines, nil
	case "mixed":
		return Mixed, nil
	default:
		return 0, fmt.Errorf("dsb: unknown workload %q (want compose, readuser or mixed)", name)
	}
}

// Spec returns the per-tier parameters of a workload. Working sets follow
// Table 2; service times and per-request traffic are calibrated to the
// paper's saturation points (compose ~5 kQPS at 7 GB/s, read ~40 kQPS at
// 10 GB/s, mixed ~12 kQPS at 32 GB/s).
func (w Workload) Spec() [numTiers]TierSpec {
	switch w {
	case ComposePosts:
		return [numTiers]TierSpec{
			Frontend: {WorkingSetMB: 83, Servers: 8, BaseService: 400 * sim.Microsecond, MemAccesses: 600, BytesPerReq: 140 << 10},
			Logic:    {WorkingSetMB: 208, Servers: 16, BaseService: 2500 * sim.Microsecond, MemAccesses: 2500, BytesPerReq: 420 << 10},
			Caching:  {WorkingSetMB: 628, Servers: 8, BaseService: 800 * sim.Microsecond, MemAccesses: 3000, BytesPerReq: 840 << 10},
		}
	case ReadUserTimelines:
		return [numTiers]TierSpec{
			Frontend: {WorkingSetMB: 83, Servers: 8, BaseService: 150 * sim.Microsecond, MemAccesses: 300, BytesPerReq: 25 << 10},
			Logic:    {WorkingSetMB: 208, Servers: 16, BaseService: 350 * sim.Microsecond, MemAccesses: 900, BytesPerReq: 75 << 10},
			Caching:  {WorkingSetMB: 628, Servers: 8, BaseService: 150 * sim.Microsecond, MemAccesses: 600, BytesPerReq: 150 << 10},
		}
	case Mixed:
		// The 10/30/60 mix hammers the caching tier with streaming reads
		// (home timelines) while the logic tier stays latency-critical:
		// large per-request traffic, modest dependent-access counts in the
		// caching path (storage access is asynchronous).
		return [numTiers]TierSpec{
			Frontend: {WorkingSetMB: 83, Servers: 8, BaseService: 250 * sim.Microsecond, MemAccesses: 1500, BytesPerReq: 500 << 10},
			Logic:    {WorkingSetMB: 208, Servers: 16, BaseService: 1100 * sim.Microsecond, MemAccesses: 4000, BytesPerReq: 2200 << 10},
			Caching:  {WorkingSetMB: 628, Servers: 8, BaseService: 450 * sim.Microsecond, MemAccesses: 800, BytesPerReq: 1500 << 10},
		}
	default:
		panic(fmt.Sprintf("dsb: unknown workload %d", w))
	}
}

// Result summarizes one operating point.
type Result struct {
	// TargetQPS is the offered load.
	TargetQPS float64
	// P99 and P50 are end-to-end latency percentiles.
	P99, P50 sim.Time
	// Saturated reports whether any tier's servers were overloaded
	// (offered load beyond capacity).
	Saturated bool
}

// Run simulates the workload at targetQPS for the given number of requests,
// with the caching tier's pages on CXL memory (cachingOnCXL) or on DDR.
// Frontend and logic always live on DDR (§5.1: instruction-fetch-bound
// components must stay on low-latency memory).
func Run(sys *topo.System, w Workload, cxlName string, cachingOnCXL bool, targetQPS float64, requests int, seed uint64) Result {
	if targetQPS <= 0 || requests <= 0 {
		panic("dsb: invalid run parameters")
	}
	spec := w.Spec()
	ddr := sys.DDRLocal
	cxl := sys.Path(cxlName)

	// Bandwidth contention: aggregate per-device demand at the target QPS
	// sets loaded-latency factors for each tier's memory component.
	// Microservice traffic is bursty; the burst factor converts the mean
	// rate into the effective short-term rate the controllers see.
	const burstFactor = 1.4
	var ddrBytes, cxlBytes float64
	for t := Frontend; t < numTiers; t++ {
		bytes := float64(spec[t].BytesPerReq) * targetQPS * burstFactor
		if t == Caching && cachingOnCXL {
			cxlBytes += bytes
		} else {
			ddrBytes += bytes
		}
	}
	window := sim.Second
	servedDDR := ddr.Device.Serve(mem.Demand{ReadBytes: ddrBytes * 0.8, WriteBytes: ddrBytes * 0.2}, window)
	servedCXL := cxl.Device.Serve(mem.Demand{ReadBytes: cxlBytes * 0.8, WriteBytes: cxlBytes * 0.2}, window)

	// Per-tier service times: compute + memory component at loaded latency.
	var svc [numTiers]sim.Time
	for t := Frontend; t < numTiers; t++ {
		path, factor := ddr, servedDDR.LatencyFactor
		if t == Caching && cachingOnCXL {
			path, factor = cxl, servedCXL.LatencyFactor
		}
		svc[t] = spec[t].BaseService +
			sim.Time(spec[t].MemAccesses)*path.LoadedParallelLatency(mem.Load, factor)
	}

	// Event simulation: Poisson arrivals through three multi-server stages.
	rng := sim.NewRng(seed)
	free := make([][]sim.Time, numTiers)
	for t := range free {
		free[t] = make([]sim.Time, spec[t].Servers)
	}
	// pickServer returns the tier's first earliest-free server and when the
	// request starts on it.
	pickServer := func(t Tier, ready sim.Time) (int, sim.Time) {
		fs := free[t]
		best, bestFree := 0, fs[0]
		for i, f := range fs {
			if f < bestFree {
				best, bestFree = i, f
			}
		}
		return best, max(ready, bestFree)
	}
	interarrival := 1e9 / targetQPS
	arrival := sim.Time(0)
	lats := make([]sim.Time, 0, requests)
	saturated := false
	for i := 0; i < requests; i++ {
		arrival += rng.ExpNanoseconds(interarrival)
		ready := arrival
		for t := Frontend; t < numTiers; t++ {
			srv, start := pickServer(t, ready)
			// Service-time variability: exponential tail on 30% of the work.
			s := rng.ExpJitter(float64(svc[t]), 0.7, 0.3)
			done := start + s
			free[t][srv] = done
			ready = done
		}
		lat := ready - arrival
		lats = append(lats, lat)
		if lat > 200*sim.Millisecond {
			saturated = true
		}
	}
	pct := stats.PercentilesNanoseconds(lats, 50, 99)
	return Result{
		TargetQPS: targetQPS,
		P99:       sim.FromNanoseconds(pct[1]),
		P50:       sim.FromNanoseconds(pct[0]),
		Saturated: saturated,
	}
}
