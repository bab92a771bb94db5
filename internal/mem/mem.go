// Package mem models the memory devices of the evaluated system: socket-local
// DDR5, remote-socket DDR5 (the NUMA emulation of CXL memory), and the three
// true CXL memory devices of Table 1 (CXL-A: ASIC + DDR5-4800, CXL-B: ASIC +
// 2×DDR4-2400, CXL-C: FPGA + DDR4-3200).
//
// Two things about a device are *calibrated* from the paper's measurements,
// because they are properties of proprietary controller silicon that cannot
// be derived from first principles: the DRAM/controller latency components
// and the bandwidth-efficiency tables of Figure 4 (fraction of theoretical
// peak bandwidth actually delivered, per instruction type and per read:write
// mix). Everything layered above — loaded latency, application throughput,
// page-allocation policy behaviour — emerges from the model.
package mem

import (
	"fmt"
	"math"

	"cxlmem/internal/sim"
)

// CacheLineBytes is the transfer granularity of every device access.
const CacheLineBytes = 64

// InstrType enumerates the memory access instruction types characterized by
// the paper's memo microbenchmark (§3.2).
type InstrType int

const (
	// Load is a temporal load (ld): allocates in the cache hierarchy.
	Load InstrType = iota
	// NTLoad is an AVX-512 non-temporal load (nt-ld): bypasses caches but,
	// for a cacheable region, still participates in coherence.
	NTLoad
	// Store is a temporal store (st): on a miss it triggers an implicit
	// read-for-ownership (cache write-allocate) before writing.
	Store
	// NTStore is a non-temporal store (nt-st): sends address and data in one
	// traversal, allocates no cache line, and performs no implicit read.
	NTStore

	numInstrTypes
)

// String returns the paper's abbreviation for the instruction type.
func (t InstrType) String() string {
	switch t {
	case Load:
		return "ld"
	case NTLoad:
		return "nt-ld"
	case Store:
		return "st"
	case NTStore:
		return "nt-st"
	default:
		return fmt.Sprintf("InstrType(%d)", int(t))
	}
}

// IsWrite reports whether the instruction moves data toward memory.
func (t InstrType) IsWrite() bool { return t == Store || t == NTStore }

// InstrTypes lists all instruction types in presentation order.
func InstrTypes() []InstrType { return []InstrType{Load, NTLoad, Store, NTStore} }

// DRAMTech describes a DRAM technology generation.
type DRAMTech struct {
	// Name is the JEDEC-style name, e.g. "DDR5-4800".
	Name string
	// PerChannelGBs is the theoretical peak bandwidth of one channel in
	// GB/s (bytes per nanosecond).
	PerChannelGBs float64
	// AccessLatency is the device-level random access latency (activate +
	// read + transfer for a closed-page random access).
	AccessLatency sim.Time
}

// Standard DRAM technologies of Table 1.
var (
	DDR54800 = DRAMTech{Name: "DDR5-4800", PerChannelGBs: 38.4, AccessLatency: 55 * sim.Nanosecond}
	DDR43200 = DRAMTech{Name: "DDR4-3200", PerChannelGBs: 25.6, AccessLatency: 60 * sim.Nanosecond}
	DDR42400 = DRAMTech{Name: "DDR4-2400", PerChannelGBs: 19.2, AccessLatency: 68 * sim.Nanosecond}
)

// IPKind distinguishes the controller implementation technologies of the
// three CXL devices (Table 1) and the host-side controllers.
type IPKind int

const (
	// HostMC is the CPU's own integrated memory controller.
	HostMC IPKind = iota
	// HardIP is an ASIC CXL controller (devices CXL-A and CXL-B).
	HardIP
	// SoftIP is an FPGA-based CXL controller (device CXL-C).
	SoftIP
)

// String names the controller kind as Table 1 does.
func (k IPKind) String() string {
	switch k {
	case HostMC:
		return "Host MC"
	case HardIP:
		return "Hard IP"
	case SoftIP:
		return "Soft IP"
	default:
		return fmt.Sprintf("IPKind(%d)", int(k))
	}
}

// MixPoint indexes the read:write ratios measured by Intel MLC (Fig. 4a).
type MixPoint int

const (
	AllRead MixPoint = iota // 100% reads
	RW31                    // 3 reads : 1 write
	RW21                    // 2 reads : 1 write
	RW11                    // 1 read : 1 write
	numMixPoints
)

// String returns the paper's label for the mix.
func (m MixPoint) String() string {
	switch m {
	case AllRead:
		return "All read"
	case RW31:
		return "3:1-RW"
	case RW21:
		return "2:1-RW"
	case RW11:
		return "1:1-RW"
	default:
		return fmt.Sprintf("MixPoint(%d)", int(m))
	}
}

// WriteFraction returns the fraction of accesses that are writes at the mix.
func (m MixPoint) WriteFraction() float64 {
	switch m {
	case AllRead:
		return 0
	case RW31:
		return 0.25
	case RW21:
		return 1.0 / 3.0
	case RW11:
		return 0.5
	default:
		panic("mem: invalid mix point")
	}
}

// MixPoints lists the MLC mixes in presentation order.
func MixPoints() []MixPoint { return []MixPoint{AllRead, RW31, RW21, RW11} }

// Controller captures the efficiency characteristics of a memory/CXL
// controller, calibrated to the paper's Figure 4 measurements.
type Controller struct {
	// Kind is the implementation technology.
	Kind IPKind
	// PortLatency is the one-way latency through the controller's protocol
	// and scheduling pipeline (per traversal; a round trip pays it twice).
	PortLatency sim.Time
	// MixEff is the delivered fraction of theoretical peak bandwidth for
	// each MLC read:write mix (Fig. 4a).
	MixEff [numMixPoints]float64
	// InstrEff is the delivered fraction of theoretical peak bandwidth for
	// single-instruction-type streams (Fig. 4b).
	InstrEff [numInstrTypes]float64
}

// Validate reports parameter errors.
func (c *Controller) Validate() error {
	if c.PortLatency < 0 {
		return fmt.Errorf("mem: controller with negative port latency")
	}
	for i, e := range c.MixEff {
		if e <= 0 || e > 1 {
			return fmt.Errorf("mem: mix efficiency[%v] = %v out of (0,1]", MixPoint(i), e)
		}
	}
	for i, e := range c.InstrEff {
		if e <= 0 || e > 1 {
			return fmt.Errorf("mem: instr efficiency[%v] = %v out of (0,1]", InstrType(i), e)
		}
	}
	return nil
}

// Device is one memory device reachable from the CPU.
type Device struct {
	// Name is the Table-1 identifier ("DDR5-L", "DDR5-R", "CXL-A", ...).
	Name string
	// Tech is the DRAM technology behind the controller.
	Tech DRAMTech
	// Channels is the number of populated DRAM channels.
	Channels int
	// Ctrl is the controller profile.
	Ctrl Controller
	// CapacityBytes is the usable capacity.
	CapacityBytes int64
}

// Validate reports configuration errors.
func (d *Device) Validate() error {
	if d.Channels <= 0 {
		return fmt.Errorf("mem: device %s has %d channels", d.Name, d.Channels)
	}
	if d.CapacityBytes <= 0 {
		return fmt.Errorf("mem: device %s has non-positive capacity", d.Name)
	}
	return d.Ctrl.Validate()
}

// PeakGBs returns the theoretical peak bandwidth in GB/s: channels ×
// per-channel DRAM bandwidth (the denominator of the paper's "bandwidth
// efficiency" metric).
func (d *Device) PeakGBs() float64 {
	return float64(d.Channels) * d.Tech.PerChannelGBs
}

// EffInstr returns the delivered fraction of peak for a pure stream of the
// given instruction type.
func (d *Device) EffInstr(t InstrType) float64 { return d.Ctrl.InstrEff[t] }

// EffWriteFraction interpolates the mix-efficiency table for an arbitrary
// write fraction in [0, 1]. Write fractions beyond 1:1 clamp to the 1:1
// value (MLC does not measure write-dominated mixes and neither does the
// paper).
func (d *Device) EffWriteFraction(wf float64) float64 {
	if wf <= 0 {
		return d.Ctrl.MixEff[AllRead]
	}
	points := MixPoints()
	for i := 0; i < len(points)-1; i++ {
		lo, hi := points[i], points[i+1]
		lw, hw := lo.WriteFraction(), hi.WriteFraction()
		if wf <= hw {
			frac := (wf - lw) / (hw - lw)
			return d.Ctrl.MixEff[lo]*(1-frac) + d.Ctrl.MixEff[hi]*frac
		}
	}
	return d.Ctrl.MixEff[RW11]
}

// EffectiveGBs returns the deliverable bandwidth in GB/s for a demand with
// the given write fraction.
func (d *Device) EffectiveGBs(writeFraction float64) float64 {
	return d.PeakGBs() * d.EffWriteFraction(writeFraction)
}

// queueK controls the steepness of the loaded-latency curve. Calibrated so a
// DDR device at ~95 % utilization runs at ~4× its unloaded latency (the
// 400–600 ns loaded-latency knee MLC measures on real DDR5), which places
// the DDR-vs-CXL offload break-even near 90 % utilization — the regime the
// paper's bandwidth-expansion findings (F4, Fig. 11a) live in.
const queueK = 0.17

// maxUtil caps utilization inside the queueing formula so the delay stays
// finite at saturation.
const maxUtil = 0.98

// QueueFactor returns the multiplicative latency inflation at utilization u
// (fraction of *effective* bandwidth in use). It is 1 at idle and grows as
// u/(1-u), the standard single-server queueing shape behind the paper's
// "contention and resulting queuing delay at the memory controller" (§6.1).
func QueueFactor(u float64) float64 {
	if u <= 0 {
		return 1
	}
	if u > maxUtil {
		u = maxUtil
	}
	return 1 + queueK*u*u/(1-u)
}

// Demand is the aggregate traffic offered to a device during one epoch.
type Demand struct {
	// ReadBytes and WriteBytes are the offered volumes.
	ReadBytes  float64
	WriteBytes float64
}

// Total returns the total offered bytes.
func (dm Demand) Total() float64 { return dm.ReadBytes + dm.WriteBytes }

// WriteFraction returns the write share of the offered traffic (0 when the
// demand is empty).
func (dm Demand) WriteFraction() float64 {
	t := dm.Total()
	if t == 0 {
		return 0
	}
	return dm.WriteBytes / t
}

// Served is the outcome of offering a Demand to a device for one epoch.
type Served struct {
	// ReadBytes and WriteBytes are the volumes actually transferred.
	ReadBytes  float64
	WriteBytes float64
	// Utilization is the fraction of the device's effective bandwidth
	// consumed during the epoch.
	Utilization float64
	// LatencyFactor is the queueing inflation to apply to unloaded access
	// latency during this epoch.
	LatencyFactor float64
}

// Total returns the total transferred bytes.
func (s Served) Total() float64 { return s.ReadBytes + s.WriteBytes }

// Serve resolves an epoch: the device transfers as much of the demand as its
// effective bandwidth allows (scaling reads and writes proportionally when
// oversubscribed) and reports utilization and the resulting latency factor.
func (d *Device) Serve(dm Demand, window sim.Time) Served {
	if window <= 0 {
		panic("mem: Serve with non-positive window")
	}
	total := dm.Total()
	if total <= 0 {
		return Served{LatencyFactor: 1}
	}
	capacity := d.EffectiveGBs(dm.WriteFraction()) * window.Nanoseconds()
	if capacity <= 0 {
		return Served{LatencyFactor: QueueFactor(1)}
	}
	scale := 1.0
	if total > capacity {
		scale = capacity / total
	}
	u := math.Min(total/capacity, 1)
	return Served{
		ReadBytes:     dm.ReadBytes * scale,
		WriteBytes:    dm.WriteBytes * scale,
		Utilization:   u,
		LatencyFactor: QueueFactor(u),
	}
}
