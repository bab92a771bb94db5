// The platform registry: the single place the scenario engine, the matrix
// experiments and the cxlbench command discover buildable machines. Like
// the workload registry (internal/workloads/registry.go) it is one table,
// fixed at compile time: PlatformByName and AllPlatforms read it, and
// PlatformCatalog renders the generated markdown table embedded in
// EXPERIMENTS.md. Nothing adds a platform at run time, so every platform a
// memoized result names is the one it was computed on, and no cache ever
// holds a stale entry (DESIGN.md §23). A new platform is a new entry in
// the table.
package topo

import (
	"fmt"
	"slices"
	"strings"
)

// Platform is one machine profile: a named, described Spec.
type Platform struct {
	// Name is the registry key, referenced by scenario specs as
	// platform=<name>. Must be non-empty lowercase.
	Name string
	// Desc is a one-line description for catalogs.
	Desc string
	// Spec is the buildable machine description.
	Spec Spec
}

// DefaultPlatform is the name of the paper's Table-1 machine — the profile
// every scenario runs on when no platform= key is given.
const DefaultPlatform = "table1"

// platforms lists every platform profile in presentation order, the order
// of every catalog and matrix: the default first, then the rest sorted by
// name.
var platforms = []Platform{
	{
		Name: DefaultPlatform,
		Desc: "the paper's dual-socket SPR server: DDR5-R emulation + CXL-A/B/C (Table 1, §5 setup)",
		Spec: DefaultConfig(),
	},
	{
		Name: "fpga-degraded",
		Desc: "worst-case device study: the Table-1 host with only a degraded soft-IP expander",
		Spec: FPGADegradedSpec(),
	},
	{
		Name: "snc-off",
		Desc: "single-socket SNC-off box with one CXL-A-class x8 expander (no UPI, no emulation)",
		Spec: SNCOffSpec(),
	},
	{
		Name: "x16-quad",
		Desc: "bandwidth-expansion box: four x16 ASIC expanders behind the full 8-channel DDR5 pool",
		Spec: X16QuadSpec(),
	},
}

// PlatformByName returns the platform with the given name.
func PlatformByName(name string) (Platform, error) {
	for _, p := range platforms {
		if p.Name == name {
			return p, nil
		}
	}
	return Platform{}, fmt.Errorf("topo: unknown platform %q (registered: %s)",
		name, strings.Join(PlatformNames(), ", "))
}

// AllPlatforms returns every platform, the default profile first, then the
// rest sorted by name.
func AllPlatforms() []Platform { return slices.Clone(platforms) }

// PlatformNames returns the platform names in AllPlatforms order.
func PlatformNames() []string {
	names := make([]string, len(platforms))
	for i, p := range platforms {
		names[i] = p.Name
	}
	return names
}

// BuildPlatform builds a fresh System for the named platform.
func BuildPlatform(name string) (*System, error) {
	p, err := PlatformByName(name)
	if err != nil {
		return nil, err
	}
	return Build(p.Spec)
}

// PlatformCatalog renders the registry as markdown table rows (one per
// platform: name, topology summary, devices, description) — the generated
// platform catalog embedded in EXPERIMENTS.md. Regenerate with
//
//	go run ./cmd/cxlbench -platform list
func PlatformCatalog() string {
	var b strings.Builder
	b.WriteString("| Platform | Topology | Far devices | Notes |\n")
	b.WriteString("|----------|----------|-------------|--------|\n")
	for _, p := range platforms {
		sp := p.Spec
		snc := "SNC off"
		if sp.SNCNodes > 1 {
			snc = fmt.Sprintf("SNC%d", sp.SNCNodes)
		}
		topo := fmt.Sprintf("%d socket, %s, %d DDR5 ch", sp.Sockets, snc, sp.LocalDDRChannels)
		var devs []string
		for _, d := range sp.Devices {
			kind := d.Link.Name
			if d.Emulated {
				kind += " emu"
			}
			devs = append(devs, fmt.Sprintf("`%s` (%s, %s)", d.Name, d.Ctrl.Kind, kind))
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", p.Name, topo, strings.Join(devs, ", "), p.Desc)
	}
	return b.String()
}
