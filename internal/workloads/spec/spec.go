// Package spec models the SPECrate CPU2017 benchmarks the paper selects for
// their memory intensity (§3.3): fotonik3d, mcf, roms and cactuBSSN — the
// four highest-MPKI members of the suite — run as multiple instances
// (SPECrate style), alone or in mixes.
//
// Each benchmark is a surrogate profile: misses per kilo-instruction, base
// CPI, memory-level parallelism, store share and an LLC footprint. The
// throughput model couples the classic CPI decomposition
//
//	CPI = CPI_base + MPKI/1000 × missLatency(cycles) / MLP
//
// with the device bandwidth/queueing model: instance throughput sets miss
// traffic, miss traffic sets device utilization, utilization sets loaded
// latency, loaded latency sets CPI. The fixed point reproduces the paper's
// observation that naïve 50 % interleaving can *lose* to DDR-only while a
// tuned interior ratio wins (F4, Fig. 13).
package spec

import (
	"fmt"
	"strings"

	"cxlmem/internal/cache"
	"cxlmem/internal/mem"
	"cxlmem/internal/telemetry"
	"cxlmem/internal/topo"
	"cxlmem/internal/workloads/fluid"
)

// CoreGHz is the evaluated CPU's clock (Table 1: 2.1 GHz).
const CoreGHz = 2.1

// Profile is one benchmark surrogate.
type Profile struct {
	// Name is the SPEC benchmark name.
	Name string
	// MPKI is L2 misses per kilo-instruction reaching the LLC.
	MPKI float64
	// BaseCPI is cycles per instruction with a perfect memory subsystem.
	BaseCPI float64
	// MLP is the average overlap of outstanding misses.
	MLP float64
	// WriteFraction is the store share of miss traffic.
	WriteFraction float64
	// HotBytes/HotFraction/ColdBytes describe the LLC footprint, as in the
	// DLRM model.
	HotBytes    int64
	ColdBytes   int64
	HotFraction float64
}

// The four highest-MPKI benchmarks of SPECrate CPU2017 (§3.3).
var (
	Fotonik3d = Profile{Name: "fotonik3d", MPKI: 60, BaseCPI: 0.6, MLP: 12,
		WriteFraction: 0.30, HotBytes: 24 << 20, ColdBytes: 1200 << 20, HotFraction: 0.3}
	Mcf = Profile{Name: "mcf", MPKI: 45, BaseCPI: 0.5, MLP: 10,
		WriteFraction: 0.20, HotBytes: 28 << 20, ColdBytes: 2000 << 20, HotFraction: 0.4}
	Roms = Profile{Name: "roms", MPKI: 30, BaseCPI: 0.7, MLP: 11,
		WriteFraction: 0.35, HotBytes: 40 << 20, ColdBytes: 800 << 20, HotFraction: 0.5}
	CactuBSSN = Profile{Name: "cactuBSSN", MPKI: 40, BaseCPI: 0.8, MLP: 12,
		WriteFraction: 0.30, HotBytes: 48 << 20, ColdBytes: 600 << 20, HotFraction: 0.4}
)

// Profiles returns the evaluated benchmarks in paper order.
func Profiles() []Profile { return []Profile{Fotonik3d, Mcf, Roms, CactuBSSN} }

// hitRate mirrors the DLRM footprint model (fluid.FootprintHitRate).
func (p Profile) hitRate(capacityBytes int64) float64 {
	return fluid.FootprintHitRate(capacityBytes, p.HotBytes, p.ColdBytes, p.HotFraction)
}

// MixByName resolves the mix names used by scenario specs: an individual
// benchmark name (matched case-insensitively, since spec strings normalize
// to lower case) runs instances of that benchmark alone; "mix" runs all
// four paper benchmarks together, instances split evenly.
func MixByName(name string, instances int) ([]Member, error) {
	if instances <= 0 {
		return nil, fmt.Errorf("spec: non-positive instance count %d", instances)
	}
	if strings.EqualFold(name, "mix") {
		ps := Profiles()
		// Split exactly: the first (instances mod members) benchmarks take
		// one extra so the total equals the request; with fewer instances
		// than benchmarks, the tail members drop out of the mix.
		per, extra := instances/len(ps), instances%len(ps)
		var members []Member
		for i, p := range ps {
			n := per
			if i < extra {
				n++
			}
			if n > 0 {
				members = append(members, Member{Profile: p, Instances: n})
			}
		}
		return members, nil
	}
	for _, p := range Profiles() {
		if strings.EqualFold(p.Name, name) {
			return []Member{{Profile: p, Instances: instances}}, nil
		}
	}
	return nil, fmt.Errorf("spec: unknown benchmark %q", name)
}

// Member is one workload of a mix.
type Member struct {
	Profile   Profile
	Instances int
}

// Result is one SPEC operating point.
type Result struct {
	// GIPS is the aggregate instruction throughput (giga-instructions/s) —
	// the SPECrate-style metric everything is normalized against.
	GIPS float64
	// PerMember breaks GIPS down by mix member.
	PerMember []float64
	// Sample is the Table-4 counter view for Caption.
	Sample telemetry.Sample
}

// Run computes the steady state of a mix with cxlPercent of pages on the
// named CXL device. Instances share the LLC (the footprint each sees is the
// node partition divided among members) and both memory devices.
func Run(sys *topo.System, members []Member, cxlName string, cxlPercent float64) Result {
	if len(members) == 0 {
		panic("spec: empty mix")
	}
	if cxlPercent < 0 || cxlPercent > 100 {
		panic(fmt.Sprintf("spec: ratio %v out of range", cxlPercent))
	}
	ddr := sys.DDRLocal
	cxl := sys.Path(cxlName)
	f := cxlPercent / 100

	// LLC visibility: DDR-homed data is confined to the node partition,
	// CXL-homed data sees the socket (O6); co-runners split capacity.
	nMembers := int64(len(members))
	ddrLLC := sys.Hier.EffectiveLLCBytes(cache.Home{Kind: cache.HomeLocalDDR}) / nMembers
	cxlLLC := sys.Hier.EffectiveLLCBytes(cache.Home{Kind: cache.HomeRemote}) / nMembers

	ddrSerial := ddr.SerialLatency(mem.Load).Nanoseconds()
	cxlSerial := cxl.SerialLatency(mem.Load).Nanoseconds()

	qfD, qfC := 1.0, 1.0
	rates := make([]float64, len(members)) // miss G/s per member
	lats := make([]float64, len(members))
	gips := make([]float64, len(members))
	var uD, uC float64
	for it := 0; it < 60; it++ {
		var demD, demC float64
		var wfD, wfC, volD, volC float64
		for i, m := range members {
			p := m.Profile
			hD := p.hitRate(ddrLLC)
			hC := p.hitRate(cxlLLC)
			lat := (1-f)*(hD*fluid.LLCHitLatencyNS+(1-hD)*ddrSerial*qfD) +
				f*(hC*fluid.LLCHitLatencyNS+(1-hC)*cxlSerial*qfC)
			lats[i] = lat
			cpi := p.BaseCPI + p.MPKI/1000*lat*CoreGHz/p.MLP
			perCoreGIPS := CoreGHz / cpi
			g := perCoreGIPS * float64(m.Instances)
			gips[i] = g
			accesses := g * p.MPKI / 1000 // G accesses/s into the LLC
			rates[i] = accesses
			missD := accesses * (1 - f) * (1 - hD) * 64
			missC := accesses * f * (1 - hC) * 64
			demD += missD
			demC += missC
			volD += missD
			volC += missC
			wfD += missD * p.WriteFraction
			wfC += missC * p.WriteFraction
		}
		wfDavg, wfCavg := 0.0, 0.0
		if volD > 0 {
			wfDavg = wfD / volD
		}
		if volC > 0 {
			wfCavg = wfC / volC
		}
		capD := ddr.Device.EffectiveGBs(wfDavg)
		capC := cxl.Device.EffectiveGBs(wfCavg)
		uD = clamp01(demD / capD)
		uC = 0.0
		if f > 0 {
			uC = clamp01(demC / capC)
		}
		// Damped queue-factor update.
		qfD = 0.5*qfD + 0.5*mem.QueueFactor(uD)
		qfC = 0.5*qfC + 0.5*mem.QueueFactor(uC)
	}

	var total, totalRate, latAcc float64
	for i := range members {
		total += gips[i]
		totalRate += rates[i]
		latAcc += rates[i] * lats[i]
	}
	avgLat := 0.0
	if totalRate > 0 {
		avgLat = latAcc / totalRate
	}
	var bw float64
	for i, m := range members {
		p := m.Profile
		hD := p.hitRate(ddrLLC)
		hC := p.hitRate(cxlLLC)
		bw += rates[i] * ((1-f)*(1-hD) + f*(1-hC)) * 64
	}
	cores := 0
	for _, m := range members {
		cores += m.Instances
	}
	return Result{
		GIPS:      total,
		PerMember: append([]float64(nil), gips...),
		Sample: telemetry.Sample{
			L1MissLatencyNS:    avgLat,
			DDRReadLatencyNS:   ddrSerial * qfD,
			IPC:                total / (float64(cores) * CoreGHz),
			SystemBandwidthGBs: bw,
			CXLPercent:         cxlPercent,
		},
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
