// Package cxlmem reproduces "Demystifying CXL Memory with Genuine CXL-Ready
// Systems and Devices" (MICRO 2023) as a calibrated memory-subsystem
// simulator plus the paper's Caption dynamic page-allocation policy.
//
// This root package is the public facade used by the examples and the
// command-line tools: it builds simulated systems, runs the paper's
// experiments by ID, evaluates one-line scenario specs against the unified
// workload registry, and wires Caption controllers to workloads. The
// building blocks live under internal/ (see DESIGN.md for the map).
//
// Every run returns a typed Dataset; Emit renders it as text, json or csv.
//
// Quick start:
//
//	sys := cxlmem.NewSystem()                              // paper §5 setup: SNC on, 2 DDR ch + CXL
//	d, err := cxlmem.RunDataset("fig3", cxlmem.RunConfig{}) // regenerate a figure
//	fmt.Print(d.Render())
//	d, err = cxlmem.RunScenarioDataset("ycsb:readmostly/policy=weighted:85,15", cxlmem.RunConfig{})
//	out, err := cxlmem.Emit(d, "json")
package cxlmem

import (
	"fmt"

	"cxlmem/internal/core"
	"cxlmem/internal/experiments"
	"cxlmem/internal/numa"
	"cxlmem/internal/results"
	"cxlmem/internal/telemetry"
	"cxlmem/internal/topo"
	"cxlmem/internal/workloads"
)

// Dataset is the typed, structured result of an experiment or scenario run:
// unit-carrying columns over numeric/string cells plus notes and provenance
// (see internal/results and DESIGN.md §10). Render it with Emit, or call its
// Render method for the default text form.
type Dataset = results.Dataset

// Formats lists the registered result emitters, default first ("text",
// "json", "csv") — the values accepted by Emit, cxlbench -format and the
// cxlserve format= query parameter.
func Formats() []string { return results.Formats() }

// Emit renders a dataset in the named format; the empty format selects text.
func Emit(d *Dataset, format string) (string, error) { return results.Emit(d, format) }

// ParseDatasetJSON decodes a dataset from its JSON wire form — the inverse
// of Emit(d, "json"), for consumers reading cxlserve responses or exported
// files back into typed form.
func ParseDatasetJSON(data []byte) (*Dataset, error) { return results.ParseJSON(data) }

// System is the simulated dual-socket SPR server with its memory devices.
type System = topo.System

// NewSystem builds the paper's application setup (§5): SNC mode on, two
// local DDR5 channels, the three CXL devices attached.
func NewSystem() *System {
	return topo.NewSystem(topo.DefaultConfig())
}

// PlatformInfo describes one registered platform profile.
type PlatformInfo struct {
	// Name is the registry key accepted by RunConfig.Platform and the
	// platform= scenario spec key.
	Name string
	// Desc is a one-line description.
	Desc string
	// Devices lists the platform's far-memory device names in presentation
	// order (the accepted device= values beyond DDR5-L).
	Devices []string
}

// Platforms lists every registered platform profile, the default first.
func Platforms() []PlatformInfo {
	var out []PlatformInfo
	for _, p := range topo.AllPlatforms() {
		info := PlatformInfo{Name: p.Name, Desc: p.Desc}
		for _, d := range p.Spec.Devices {
			info.Devices = append(info.Devices, d.Name)
		}
		out = append(out, info)
	}
	return out
}

// PlatformCatalog renders the platform registry as the markdown catalog
// embedded in EXPERIMENTS.md.
func PlatformCatalog() string { return topo.PlatformCatalog() }

// ExperimentInfo describes one reproducible table or figure.
type ExperimentInfo struct {
	// ID is the identifier accepted by RunDataset ("fig3", "table1", ...).
	ID string
	// Desc is a one-line description.
	Desc string
}

// Experiments lists every reproducible table and figure.
func Experiments() []ExperimentInfo {
	var out []ExperimentInfo
	for _, e := range experiments.All() {
		out = append(out, ExperimentInfo{ID: e.ID, Desc: e.Desc})
	}
	return out
}

// RunConfig tunes an experiment regeneration.
type RunConfig struct {
	// Quick reduces sample counts (used by benchmarks).
	Quick bool
	// Parallel is the worker count for independent sweep points; 0 uses
	// every available CPU. The rendered table is byte-identical for any
	// worker count.
	Parallel int
	// Seed perturbs the stochastic components; 0 keeps the default.
	Seed uint64
	// Platform selects the registered platform profile scenario runs use
	// by default (a spec's own platform= key wins); empty keeps the
	// Table-1 default. The paper's fixed figures always run on Table 1.
	Platform string
	// Fidelity selects the measurement tier of the cache-simulating
	// experiments (fig5, ablation-llc): "exact" (default) replays every
	// operating point through the cache simulator, "fast" uses the CHE
	// analytic estimate everywhere, and "auto" estimates off-knee points
	// and simulates only near a capacity knee. Experiments without a
	// simulated hot path ignore it.
	Fidelity string
}

// options resolves the configuration into the experiment layer's option
// set through the one mapping cxlserve's flags take too.
func (cfg RunConfig) options() (experiments.Options, error) {
	return experiments.Options{
		Quick:    cfg.Quick,
		Parallel: cfg.Parallel,
		Seed:     cfg.Seed,
		Platform: cfg.Platform,
		Fidelity: experiments.Fidelity(cfg.Fidelity),
	}.Resolve()
}

// RunDataset regenerates one experiment as a typed dataset, memoized
// process-wide: repeated calls for the same (id, options) — including
// re-emitting one run in several formats — evaluate the experiment once.
// The returned dataset is shared; treat it as immutable.
func RunDataset(id string, cfg RunConfig) (*Dataset, error) {
	o, err := cfg.options()
	if err != nil {
		return nil, err
	}
	return experiments.RunDataset(id, o)
}

// ScenarioInfo describes one registered workload of the scenario engine.
type ScenarioInfo struct {
	// Name is the spec head accepted by RunScenarioDataset ("ycsb", "dlrm", ...).
	Name string
	// Desc is a one-line description.
	Desc string
	// Variants lists the accepted variant names.
	Variants []string
}

// ScenarioWorkloads lists every workload the scenario engine can run.
func ScenarioWorkloads() []ScenarioInfo {
	var out []ScenarioInfo
	for _, w := range workloads.All() {
		out = append(out, ScenarioInfo{Name: w.Name, Desc: w.Desc, Variants: w.Variants})
	}
	return out
}

// ScenarioCatalog renders the registry as the markdown catalog embedded in
// EXPERIMENTS.md.
func ScenarioCatalog() string { return workloads.Catalog() }

// RunScenarioDataset evaluates one scenario spec (see internal/workloads:
// e.g. "ycsb:readmostly/policy=weighted:85,15/size=4G") as a typed dataset:
// the cell's full metric list, one row per metric, with the canonical spec
// in the provenance. The cell value is memoized process-wide, so
// re-evaluating a cell is free.
func RunScenarioDataset(spec string, cfg RunConfig) (*Dataset, error) {
	sc, err := workloads.ParseScenario(spec)
	if err != nil {
		return nil, err
	}
	o, err := cfg.options()
	if err != nil {
		return nil, err
	}
	return experiments.ScenarioResult(o, sc)
}

// RunScenarioMatrixDataset evaluates the full scenario cross product — the
// union of the matrix-apps, matrix-policy, matrix-size and matrix-platform
// cells — through the parallel sweep engine as one typed dataset, one row
// per cell.
func RunScenarioMatrixDataset(cfg RunConfig) (*Dataset, error) {
	o, err := cfg.options()
	if err != nil {
		return nil, err
	}
	return experiments.ScenarioDataset(o, "matrix-all",
		"full scenario matrix: workload x policy x size", experiments.AllMatrixScenarios())
}

// Policy is a two-node (DDR, CXL) weighted-interleave allocation policy —
// the knob Caption tunes.
type Policy = numa.Weighted

// NewPolicy creates a policy placing cxlPercent of new pages on CXL memory.
func NewPolicy(cxlPercent float64) *Policy {
	return numa.NewDDRCXLSplit(cxlPercent)
}

// Caption is a configured instance of the paper's dynamic page-allocation
// controller driving a Policy.
type Caption struct {
	ctl    *core.Controller
	policy *Policy
}

// Sample is one observation of the Table-4 PMU counters.
type Sample = telemetry.Sample

// NewCaption assembles a Caption controller. The estimator is fitted from a
// calibration sweep: counter samples with the measured throughput at each
// operating point (the paper uses a DLRM ratio sweep, §6.1 M2). The
// returned controller updates policy on every Observe call.
func NewCaption(sweep []Sample, throughput []float64, policy *Policy) (*Caption, error) {
	if policy == nil {
		return nil, fmt.Errorf("cxlmem: nil policy")
	}
	est, err := core.FitEstimator(sweep, throughput)
	if err != nil {
		return nil, err
	}
	ctl := core.NewController(est, core.DefaultTunerConfig(), policy.SetCXLPercent)
	return &Caption{ctl: ctl, policy: policy}, nil
}

// Observe feeds one sampling interval's raw counters into the controller;
// the policy's CXL percentage is retuned as a side effect. It returns the
// estimated memory-subsystem performance and the newly applied ratio.
func (c *Caption) Observe(raw Sample) (state, ratio float64, err error) {
	return c.ctl.Step(raw)
}

// Ratio returns the percentage of new pages currently steered to CXL.
func (c *Caption) Ratio() float64 { return c.ctl.Ratio() }
