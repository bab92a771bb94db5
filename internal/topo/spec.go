// The declarative platform layer (DESIGN.md §9).
//
// A Spec describes a machine as data — socket count, SNC mode, local DDR
// channels, and a list of far-memory devices each carrying its own
// controller, link and DRAM parameters — and Build validates the spec and
// assembles the System the rest of the simulator runs on. The paper's
// Table-1 machine is just the default platform profile (DefaultConfig);
// every other platform is the same few lines of data with different
// numbers, so "many machines × many workloads" needs no new constructor
// code.
package topo

import (
	"fmt"

	"cxlmem/internal/cache"
	"cxlmem/internal/coherence"
	"cxlmem/internal/link"
	"cxlmem/internal/mem"
)

// DeviceSpec describes one far-memory device of a platform: the device
// itself and the link it is reached over.
type DeviceSpec struct {
	// Device is the DRAM behind the controller, the controller in front of
	// it, the channel count and the capacity. Its Name identifies the
	// device in specs and diagnostics ("CXL-A", ...); names must be unique
	// within a platform and may not reuse the local DDR pool's reserved
	// name ("DDR5-L").
	mem.Device
	// Link is the device-side interconnect: the CXL/PCIe link for a true
	// CXL device, or the inter-socket link (UPI) for an emulated device.
	Link link.Link
	// Emulated marks a remote-NUMA emulation of CXL memory: the device is
	// the other socket's DRAM, reached over the inter-socket link with
	// remote-directory coherence (mesh→Link→mesh). False means a true CXL
	// device (mesh→Link) resolved by the on-chip CXL home structure.
	Emulated bool
}

// Spec declaratively describes a whole platform. The zero value is not
// runnable — start from DefaultConfig or a registered platform profile and
// override fields.
type Spec struct {
	// Name identifies the platform ("table1", "x16-quad", ...).
	Name string
	// Desc is a one-line description for catalogs.
	Desc string
	// Sockets is the CPU socket count (1 or 2). Emulated devices need the
	// second socket's DRAM, so they require Sockets == 2.
	Sockets int
	// Cores is the per-socket core count visible to the cache hierarchy;
	// 0 uses the evaluated Xeon 6430's 32 cores. It must be a power of two
	// (one LLC slice per core; see cache.HierConfig.Validate).
	Cores int
	// SNCNodes is the sub-NUMA cluster count (1 = SNC off). Cores must
	// divide evenly among nodes and the node index must fit the packed
	// cache-line home field (cache.MaxHomeNode).
	SNCNodes int
	// LocalDDRChannels is the number of socket-local DDR5-4800 channels
	// visible to the workload.
	LocalDDRChannels int
	// Devices lists the far-memory devices in presentation order.
	Devices []DeviceSpec
	// DefaultFarDevice names the device scenarios use when a spec names
	// none; empty selects the first non-emulated device (falling back to
	// the first device of any kind).
	DefaultFarDevice string
	// CXLBreaksSNCIsolation mirrors the measured LLC behaviour (O6);
	// disable for the ablation.
	CXLBreaksSNCIsolation bool
	// CoherenceCongestion keeps the remote directory's burst penalty on
	// emulated devices; disable for the O3 ablation.
	CoherenceCongestion bool
}

// hierConfig derives the cache hierarchy the spec builds: the evaluated
// Xeon 6430's caches with the spec's core count, SNC mode and isolation
// behaviour.
func (sp Spec) hierConfig() cache.HierConfig {
	hcfg := cache.SPRHierConfig(sp.SNCNodes)
	if sp.Cores != 0 {
		hcfg.Cores = sp.Cores
	}
	hcfg.CXLBreaksIsolation = sp.CXLBreaksSNCIsolation
	return hcfg
}

// defaultFar resolves the spec's default far device name. Validate has
// already established that Devices is non-empty and an explicit name exists.
func (sp Spec) defaultFar() string {
	if sp.DefaultFarDevice != "" {
		return sp.DefaultFarDevice
	}
	for _, d := range sp.Devices {
		if !d.Emulated {
			return d.Name
		}
	}
	return sp.Devices[0].Name
}

// Validate reports the first problem that would make the spec unbuildable,
// with enough context to fix the offending field. The cache hierarchy's
// shape rules (core and SNC node counts) belong to cache.HierConfig.Validate,
// which checks the exact config Build will construct, so a spec Validate
// accepts never makes Build panic.
func (sp Spec) Validate() error {
	if sp.Sockets != 1 && sp.Sockets != 2 {
		return fmt.Errorf("topo: platform %q: %d sockets (want 1 or 2)", sp.Name, sp.Sockets)
	}
	if err := sp.hierConfig().Validate(); err != nil {
		return fmt.Errorf("topo: platform %q: %w", sp.Name, err)
	}
	if sp.LocalDDRChannels <= 0 {
		return fmt.Errorf("topo: platform %q: non-positive local DDR channel count %d",
			sp.Name, sp.LocalDDRChannels)
	}
	if len(sp.Devices) == 0 {
		return fmt.Errorf("topo: platform %q: no far-memory devices", sp.Name)
	}
	seen := make(map[string]bool, len(sp.Devices))
	for i, d := range sp.Devices {
		if d.Name == "" {
			return fmt.Errorf("topo: platform %q: device %d has no name", sp.Name, i)
		}
		if d.Name == "DDR5-L" {
			return fmt.Errorf("topo: platform %q: device name %q is reserved for the local DDR pool",
				sp.Name, d.Name)
		}
		if seen[d.Name] {
			return fmt.Errorf("topo: platform %q: duplicate device name %q", sp.Name, d.Name)
		}
		seen[d.Name] = true
		if d.Emulated && sp.Sockets < 2 {
			return fmt.Errorf("topo: platform %q: emulated device %q needs a second socket",
				sp.Name, d.Name)
		}
		if err := d.Device.Validate(); err != nil {
			return fmt.Errorf("topo: platform %q: device %q: %w", sp.Name, d.Name, err)
		}
		l := d.Link
		if err := l.Validate(); err != nil {
			return fmt.Errorf("topo: platform %q: device %q: %w", sp.Name, d.Name, err)
		}
	}
	if sp.DefaultFarDevice != "" && !seen[sp.DefaultFarDevice] {
		return fmt.Errorf("topo: platform %q: default far device %q is not in the device list",
			sp.Name, sp.DefaultFarDevice)
	}
	return nil
}

// Build validates the spec and assembles the system. Every constraint is
// checked up front, so a returned System routes every access without
// tripping the packed-word limits deeper in the cache engine.
func Build(sp Spec) (*System, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		defaultFar: sp.defaultFar(),
		Hier:       cache.NewHierarchy(sp.hierConfig()),
		DDRLocal: &Path{
			Name:   "DDR5-L",
			Device: mem.DDR5Local(sp.LocalDDRChannels),
			Links:  []*link.Link{link.Mesh()},
			Coh:    coherence.LocalCHA(),
		},
	}
	s.paths = append(s.paths, s.DDRLocal)
	for _, d := range sp.Devices {
		dev, l := d.Device, d.Link
		var p *Path
		if d.Emulated {
			coh := coherence.RemoteDirectory()
			if !sp.CoherenceCongestion {
				coh.BurstPenalty = coherence.CXLHomeStructure().BurstPenalty
			}
			p = &Path{
				Name:         d.Name,
				Device:       &dev,
				Links:        []*link.Link{link.Mesh(), &l, link.Mesh()},
				Coh:          coh,
				IsRemoteNUMA: true,
			}
		} else {
			p = &Path{
				Name:   d.Name,
				Device: &dev,
				Links:  []*link.Link{link.Mesh(), &l},
				Coh:    coherence.CXLHomeStructure(),
				IsCXL:  true,
			}
		}
		s.paths = append(s.paths, p)
	}
	return s, nil
}

// NewSystem builds the spec and panics on validation errors — for
// code-defined machines (DefaultConfig, MicrobenchConfig, the ablations'
// variants of them), whose invalidity is a programming error.
func NewSystem(sp Spec) *System {
	s, err := Build(sp)
	if err != nil {
		panic(err)
	}
	return s
}
