// Built-in platform profiles, the specs of the platform table. The paper's
// Table-1 machine is the default; the others explore the device-diversity
// axes the paper opens (O2: the controller dominates; §1: x8 vs x16 links;
// Fig. 4: ASIC vs FPGA efficiency) without touching any constructor code —
// each profile is a few lines of Spec data.
package topo

import (
	"cxlmem/internal/link"
	"cxlmem/internal/mem"
)

// deviceSpecOf lifts a materialized mem.Device into spec form over the given
// link.
func deviceSpecOf(d *mem.Device, l *link.Link, emulated bool) DeviceSpec {
	return DeviceSpec{
		Name:          d.Name,
		Tech:          d.Tech,
		Channels:      d.Channels,
		Ctrl:          d.Ctrl,
		CapacityBytes: d.CapacityBytes,
		Link:          *l,
		Emulated:      emulated,
	}
}

// Table1Spec returns the paper's evaluated machine in declarative form, in
// its §5 application configuration (SNC on, two local DDR5 channels) — the
// same machine DefaultConfig selected from the hand-written constructor.
// NewSystem layers Config overrides (MicrobenchConfig, the ablations) on
// top of it.
func Table1Spec() Spec {
	devices := []DeviceSpec{deviceSpecOf(mem.DDR5Remote(), link.UPI(), true)}
	for _, d := range mem.AllCXLDevices() {
		devices = append(devices, deviceSpecOf(d, link.CXLx8(), false))
	}
	return Spec{
		Name:                  DefaultPlatform,
		Desc:                  "the paper's dual-socket SPR server (Table 1)",
		Sockets:               2,
		SNCNodes:              4,
		LocalDDRChannels:      2,
		Devices:               devices,
		DefaultFarDevice:      "CXL-A",
		CXLBreaksSNCIsolation: true,
		CoherenceCongestion:   true,
	}
}

// X16QuadSpec returns a multi-expander bandwidth-expansion platform: SNC
// off, the full 8-channel local DDR5 pool, and four identical
// second-generation ASIC expanders each on its own x16 link — the
// CXLRAMSim-style system-level exploration target where far memory is
// provisioned for aggregate bandwidth, not capacity emulation.
func X16QuadSpec() Spec {
	sp := Spec{
		Name:                  "x16-quad",
		Desc:                  "four x16 ASIC expanders, SNC off, 8 DDR5 channels",
		Sockets:               2,
		SNCNodes:              1,
		LocalDDRChannels:      8,
		DefaultFarDevice:      "CXL-X0",
		CXLBreaksSNCIsolation: true,
		CoherenceCongestion:   true,
	}
	for _, name := range []string{"CXL-X0", "CXL-X1", "CXL-X2", "CXL-X3"} {
		sp.Devices = append(sp.Devices, deviceSpecOf(mem.CXLExpander(name), link.CXLx16(), false))
	}
	return sp
}

// SNCOffSpec returns a single-socket SNC-off box: no second socket, so no
// UPI path and no remote-NUMA emulation — just the 8-channel DDR5 pool and
// one CXL-A-class expander on x8. The minimal genuine-CXL deployment the
// paper argues emulation misrepresents (O1–O3).
func SNCOffSpec() Spec {
	return Spec{
		Name:                  "snc-off",
		Desc:                  "single socket, SNC off, one CXL-A-class x8 expander",
		Sockets:               1,
		SNCNodes:              1,
		LocalDDRChannels:      8,
		Devices:               []DeviceSpec{deviceSpecOf(mem.CXLA(), link.CXLx8(), false)},
		DefaultFarDevice:      "CXL-A",
		CXLBreaksSNCIsolation: true,
		CoherenceCongestion:   true,
	}
}

// FPGADegradedSpec returns the Table-1 host with its only far memory a
// degraded soft-IP expander: the §5 SNC configuration, the DDR5-R emulation
// kept for reference, and a CXL-F device whose FPGA pipeline is slower than
// even CXL-C — the floor of the O2 controller-dependence axis.
func FPGADegradedSpec() Spec {
	return Spec{
		Name:             "fpga-degraded",
		Desc:             "Table-1 host, far memory only through a degraded FPGA expander",
		Sockets:          2,
		SNCNodes:         4,
		LocalDDRChannels: 2,
		Devices: []DeviceSpec{
			deviceSpecOf(mem.DDR5Remote(), link.UPI(), true),
			deviceSpecOf(mem.CXLFPGADegraded("CXL-F"), link.CXLx8(), false),
		},
		DefaultFarDevice:      "CXL-F",
		CXLBreaksSNCIsolation: true,
		CoherenceCongestion:   true,
	}
}
