// Package topo assembles the evaluated system of Table 1: a dual-socket
// Sapphire Rapids server with 8 local DDR5-4800 channels, one remote DDR5
// channel emulating CXL memory over UPI, and the three true CXL devices.
//
// Its central abstraction is the Path: the end-to-end route from a core to a
// memory device, composed of the host overhead, a coherence agent, a chain
// of links, the device controller and the DRAM itself. A Path answers the
// two latency questions the paper's microbenchmarks ask:
//
//   - SerialLatency: one dependent access (Intel MLC's pointer chase);
//   - ParallelLatency: the amortized per-access latency of a burst of
//     independent accesses (the memo microbenchmark), where full-duplex links
//     pipeline transfers and only per-access serialization and coherence
//     burst costs remain.
package topo

import (
	"fmt"

	"cxlmem/internal/cache"
	"cxlmem/internal/coherence"
	"cxlmem/internal/link"
	"cxlmem/internal/mem"
	"cxlmem/internal/sim"
)

// Core-side constants of the evaluated Xeon 6430 at 2.1 GHz.
const (
	// HostOverhead is the core-side cost of a demand miss: address
	// generation, L1/L2 lookup misses, CHA routing. Paid once per access.
	HostOverhead = 30 * sim.Nanosecond

	// EffectiveMLP is the effective memory-level parallelism a core
	// achieves on a burst of independent cacheable accesses (memo's 16
	// back-to-back instructions). Hardware has 16 fill buffers, but
	// TLB walks, fences and scheduling limit the realized overlap;
	// 4.8 reproduces the amortization ratios of §4.1 (76–79 % latency
	// reduction from parallelism).
	EffectiveMLP = 4.8

	// L1HitLatency, L2HitLatency, LLCHitLatency are load-to-use latencies
	// for cache hits.
	L1HitLatency  = 1500 * sim.Picosecond
	L2HitLatency  = 8 * sim.Nanosecond
	LLCHitLatency = 33 * sim.Nanosecond

	// CmdBytes is the size of a request packet; LineBytes of a data packet.
	CmdBytes  = 8
	LineBytes = mem.CacheLineBytes
)

// Path is the end-to-end route from a core to one memory device.
type Path struct {
	// Name matches the device name ("DDR5-L", "CXL-A", ...).
	Name string
	// Device is the memory device at the end of the path.
	Device *mem.Device
	// Links is the ordered chain of interconnects from core to device.
	Links []*link.Link
	// Coh is the coherence agent consulted for every access.
	Coh *coherence.Agent
	// IsCXL reports whether the path crosses a CXL link (true CXL memory);
	// remote-NUMA emulation and local DRAM report false.
	IsCXL bool
	// IsRemoteNUMA reports whether the path crosses UPI to the other socket.
	IsRemoteNUMA bool
}

// outbound returns the command-direction latency: links plus the controller
// ingress pipeline.
func (p *Path) outbound(payload int) sim.Time {
	t := sim.Time(0)
	for _, l := range p.Links {
		t += l.Traverse(payload)
	}
	return t + p.Device.Ctrl.PortLatency
}

// inbound returns the data-return latency: links plus the controller egress
// pipeline.
func (p *Path) inbound(payload int) sim.Time {
	t := sim.Time(0)
	for _, l := range p.Links {
		t += l.Traverse(payload)
	}
	return t + p.Device.Ctrl.PortLatency
}

// ackReturn is the completion message for posted writes: propagation only.
func (p *Path) ackReturn() sim.Time {
	t := sim.Time(0)
	for _, l := range p.Links {
		t += l.Propagation
	}
	return t
}

// SerialLatency returns the latency of one dependent access of the given
// instruction type — what Intel MLC measures for loads (§4.1's
// pointer-chasing) and what a fenced single store costs.
func (p *Path) SerialLatency(t mem.InstrType) sim.Time {
	dram := p.Device.Tech.AccessLatency
	switch t {
	case mem.Load, mem.NTLoad:
		// Round trip: command out, DRAM access, line back.
		return HostOverhead + p.Coh.SerialCost(false) +
			p.outbound(CmdBytes) + dram + p.inbound(LineBytes)
	case mem.Store:
		// Write-allocate: implicit read-for-ownership (full load round
		// trip with ownership coherence), then the dirty line drains back.
		rfo := HostOverhead + p.Coh.SerialCost(true) +
			p.outbound(CmdBytes) + dram + p.inbound(LineBytes)
		drain := p.outbound(LineBytes)
		return rfo + drain
	case mem.NTStore:
		// Address and data travel together in one traversal; no implicit
		// read. The device posts the write and returns a light completion.
		// Controllers accept posted writes into a buffer, so only half the
		// scheduling pipeline is exposed.
		oneWay := sim.Time(0)
		for _, l := range p.Links {
			oneWay += l.Traverse(CmdBytes + LineBytes)
		}
		oneWay += p.Device.Ctrl.PortLatency / 2
		return HostOverhead + p.Coh.SerialCost(true) + oneWay + p.ackReturn()
	default:
		panic(fmt.Sprintf("topo: unknown instruction type %v", t))
	}
}

// ParallelLatency returns the amortized per-access latency for a burst of
// independent accesses of the given type — what memo measures with its 16
// back-to-back instructions (§3.2). Full-duplex links overlap the transfers
// of different requests, so the serialized latency is divided by the
// effective MLP; what cannot be hidden is the per-access coherence cost,
// which congests on the UPI path but not on the CXL path (O3).
func (p *Path) ParallelLatency(t mem.InstrType) sim.Time {
	serial := p.SerialLatency(t)
	amortized := sim.Time(float64(serial) / EffectiveMLP)
	return amortized + p.Coh.BurstCost(t.IsWrite())
}

// LoadedParallelLatency scales the parallel latency by a queueing factor
// from mem.Served (>= 1), modeling the loaded-latency curve of §6.1.
func (p *Path) LoadedParallelLatency(t mem.InstrType, factor float64) sim.Time {
	if factor < 1 {
		factor = 1
	}
	return sim.Time(float64(p.ParallelLatency(t)) * factor)
}

// HitLatency returns the load-to-use latency for an access satisfied at the
// given cache level; Memory-level accesses defer to the path's own latency.
func (p *Path) HitLatency(level cache.Level) sim.Time {
	switch level {
	case cache.L1:
		return L1HitLatency
	case cache.L2:
		return L2HitLatency
	case cache.LLC:
		return LLCHitLatency
	case cache.Memory:
		return p.SerialLatency(mem.Load)
	default:
		panic(fmt.Sprintf("topo: unknown cache level %v", level))
	}
}

// System is the assembled machine, produced by Build (or NewSystem) from a
// declarative Spec (spec.go).
type System struct {
	defaultFar string
	// paths holds every device path in the spec's presentation order,
	// DDR5-L first.
	paths []*Path
	// Hier is the cache hierarchy shared by all cores.
	Hier *cache.Hierarchy
	// DDRLocal is the socket-local DDR5 path (the baseline device).
	DDRLocal *Path
}

// DefaultFarDevice returns the name of the far-memory device scenarios use
// when they do not name one — "CXL-A" on the Table-1 platform.
func (s *System) DefaultFarDevice() string { return s.defaultFar }

// Path returns the path with the given device name or panics — experiment
// code passes literal names.
func (s *System) Path(name string) *Path {
	for _, p := range s.paths {
		if p.Name == name {
			return p
		}
	}
	panic(fmt.Sprintf("topo: unknown device %q", name))
}

// Paths returns all device paths in the platform's presentation order
// (Table-1 order on the default platform), DDR5-L first.
func (s *System) Paths() []*Path { return s.paths }

// ComparisonPaths returns every far-memory device path — on the Table-1
// platform, the four devices Figure 3/4 compare (everything except the
// DDR5-L baseline).
func (s *System) ComparisonPaths() []*Path { return s.paths[1:] }

// HomeFor classifies a device path for LLC slice routing: local DDR stays in
// the accessor's node; remote NUMA and CXL memory break isolation (O6).
func (s *System) HomeFor(p *Path, node int) cache.Home {
	if p.IsCXL || p.IsRemoteNUMA {
		return cache.Home{Kind: cache.HomeRemote, Node: node}
	}
	return cache.Home{Kind: cache.HomeLocalDDR, Node: node}
}
