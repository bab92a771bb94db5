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

// DefaultConfig returns the paper's evaluated machine (Table 1) in its
// primary application setup: SNC mode on, two local DDR5 channels, and the
// DDR5-R emulation beside the three CXL devices (§5: "we enable the SNC
// mode to use only two local DDR5 memory channels along with one CXL
// memory channel"). It is the default platform profile.
func DefaultConfig() Spec {
	devices := []DeviceSpec{{Device: *mem.DDR5Remote(), Link: *link.UPI(), Emulated: true}}
	for _, d := range mem.AllCXLDevices() {
		devices = append(devices, DeviceSpec{Device: *d, Link: *link.CXLx8()})
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

// MicrobenchConfig returns the Table-1 machine in its §4 characterization
// setup: SNC off, the full 8-channel local DDR5 pool as the baseline.
func MicrobenchConfig() Spec {
	sp := DefaultConfig()
	sp.SNCNodes = 1
	sp.LocalDDRChannels = 8
	return sp
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
		sp.Devices = append(sp.Devices, DeviceSpec{Device: *mem.CXLExpander(name), Link: *link.CXLx16()})
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
		Devices:               []DeviceSpec{{Device: *mem.CXLA(), Link: *link.CXLx8()}},
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
			{Device: *mem.DDR5Remote(), Link: *link.UPI(), Emulated: true},
			{Device: *mem.CXLFPGADegraded("CXL-F"), Link: *link.CXLx8()},
		},
		DefaultFarDevice:      "CXL-F",
		CXLBreaksSNCIsolation: true,
		CoherenceCongestion:   true,
	}
}
