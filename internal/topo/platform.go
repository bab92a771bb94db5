// The platform registry: the single place the scenario engine, the matrix
// experiments and the cxlbench command discover buildable machines. It
// mirrors the workload registry (internal/workloads/registry.go):
// registerPlatform panics on a duplicate or broken profile, PlatformByName
// and AllPlatforms read it, and PlatformCatalog renders the generated
// markdown table embedded in EXPERIMENTS.md.
//
// The registry is fixed once init has run. Only this package's profiles.go
// registers profiles, from its init, so every platform a memoized result
// names is the one it was computed on, and no cache ever holds a stale
// entry (DESIGN.md §23). A new platform is a new registerPlatform call in
// profiles.go's init.
package topo

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Platform is one registered machine profile: a named, described Spec.
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

var (
	platformMu sync.RWMutex
	platforms  = map[string]Platform{}
)

// registerPlatform adds a platform under its name. It panics on duplicates,
// invalid names or unbuildable specs — registration happens in init and a
// broken profile is a programming error, matching the workload registry.
func registerPlatform(p Platform) {
	if p.Name == "" || p.Name != strings.ToLower(p.Name) {
		panic(fmt.Sprintf("topo: invalid platform name %q (must be non-empty lowercase)", p.Name))
	}
	if err := p.Spec.Validate(); err != nil {
		panic(fmt.Sprintf("topo: platform %q does not validate: %v", p.Name, err))
	}
	platformMu.Lock()
	if _, dup := platforms[p.Name]; dup {
		platformMu.Unlock()
		panic("topo: duplicate platform " + p.Name)
	}
	platforms[p.Name] = p
	platformMu.Unlock()
}

// PlatformByName returns the registered platform with the given name.
func PlatformByName(name string) (Platform, error) {
	platformMu.RLock()
	defer platformMu.RUnlock()
	p, ok := platforms[name]
	if !ok {
		return Platform{}, fmt.Errorf("topo: unknown platform %q (registered: %s)",
			name, strings.Join(platformNamesLocked(), ", "))
	}
	return p, nil
}

// AllPlatforms returns every registered platform, the default profile first,
// then the rest sorted by name — the presentation order of every catalog and
// matrix.
func AllPlatforms() []Platform {
	platformMu.RLock()
	defer platformMu.RUnlock()
	out := make([]Platform, 0, len(platforms))
	for _, name := range platformNamesLocked() {
		out = append(out, platforms[name])
	}
	return out
}

// PlatformNames returns the registry keys in AllPlatforms order.
func PlatformNames() []string {
	platformMu.RLock()
	defer platformMu.RUnlock()
	return platformNamesLocked()
}

// platformNamesLocked lists the names, default first then sorted; callers
// hold platformMu.
func platformNamesLocked() []string {
	names := make([]string, 0, len(platforms))
	for name := range platforms {
		if name != DefaultPlatform {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if _, ok := platforms[DefaultPlatform]; ok {
		names = append([]string{DefaultPlatform}, names...)
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
	for _, p := range AllPlatforms() {
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
