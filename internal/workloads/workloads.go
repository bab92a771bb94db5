// Package workloads unifies the paper's seven application models (DLRM,
// DeathStarBench, fio, the fluid bandwidth solver, the Redis kvstore,
// SPECrate surrogates, and YCSB), plus the event-driven tpp-timeline, in one
// table of Workload values.
//
// Historically each model under internal/workloads/* exposed its own
// bespoke entry point and only the hard-coded experiment drivers could run
// it. This package turns every model into a Workload: a named, describable
// entry with variants, a default Config, and a uniform Run function that
// returns ordered Metrics. New scenarios become data — a one-line spec
// string (see Scenario) — instead of code, matching the uniform workload
// front-ends of CXL-DMSim and CXLRAMSim.
//
// The layering rule: this parent package may import the per-model
// subpackages (internal/workloads/dlrm, .../ycsb, ...), never the other way
// around, so the models stay import-cycle-free and usable on their own.
// The Run functions live in adapters.go and timeline.go; the table in
// registry.go; the scenario spec language in scenario.go.
package workloads

import (
	"context"
	"fmt"

	"cxlmem/internal/results"
	"cxlmem/internal/sim"
	"cxlmem/internal/topo"
)

// Env is the execution environment handed to every workload run: the
// simulated system plus the cross-cutting run options the experiment layer
// already understands.
type Env struct {
	// Sys is the simulated system the workload runs on.
	Sys *topo.System
	// Platform is the registered platform profile Sys was built from
	// (topo.DefaultPlatform for the paper's Table-1 machine).
	Platform string
	// Quick reduces sample counts the same way experiments.Options.Quick
	// does; adapters scale their operation counts through ScaleOps.
	Quick bool
	// Ctx, when set, bounds the run: an event-driven run checks it at every
	// epoch boundary, the kvstore, ycsb, dsb and fio models every few
	// thousand operations, and each returns its error once it is done. The
	// closed-form models (dlrm, spec, fluid) have no loop to stop.
	Ctx context.Context
}

// context returns the environment's context, Background when none is set.
func (e *Env) context() context.Context {
	if e.Ctx == nil {
		return context.Background()
	}
	return e.Ctx
}

// NewEnv builds an environment over the paper's §5 application setup — the
// default platform profile.
func NewEnv() *Env {
	return &Env{Sys: topo.NewSystem(topo.DefaultConfig()), Platform: topo.DefaultPlatform}
}

// NewEnvOn builds an environment over the named platform profile; an empty
// name selects the default platform.
func NewEnvOn(platform string) (*Env, error) {
	if platform == "" {
		platform = topo.DefaultPlatform
	}
	sys, err := topo.BuildPlatform(platform)
	if err != nil {
		return nil, err
	}
	return &Env{Sys: sys, Platform: platform}, nil
}

// ForPlatform returns an environment on the named platform carrying e's run
// options: e itself when the name is empty or already e's platform,
// otherwise a copy whose system NewEnvOn builds fresh from the profile.
func (e *Env) ForPlatform(platform string) (*Env, error) {
	if platform == "" || platform == e.Platform {
		return e, nil
	}
	pe, err := NewEnvOn(platform)
	if err != nil {
		return nil, err
	}
	ne := *e
	ne.Sys, ne.Platform = pe.Sys, pe.Platform
	return &ne, nil
}

// ScaleOps is the one quick-mode scaling rule, for adapters and experiment
// drivers alike: in quick mode an operation count shrinks tenfold, to no
// fewer than 100; otherwise it is n.
func ScaleOps(quick bool, n int) int {
	if quick {
		n /= 10
		if n < 100 {
			n = 100
		}
	}
	return n
}

// seedOr resolves the effective seed: the config's if set, else the
// workload's calibrated fallback.
func (cfg Config) seedOr(fallback uint64) uint64 {
	if cfg.Seed != 0 {
		return cfg.Seed
	}
	return fallback
}

// Config is the generic knob set shared by every workload. A workload's
// Defaults fill the knobs it honors; Scenario overrides map onto the
// same fields. Zero values mean "use the workload default".
type Config struct {
	// Variant selects a workload-specific mode: a YCSB letter, a DSB
	// request type, a fio block size, a SPEC mix, a DLRM SNC scenario.
	Variant string
	// Device names the CXL device backing the scenario's far memory.
	Device string
	// CXLPercent is the share of pages (or the tier placement, for DSB)
	// steered to the CXL device, 0..100 — the paper's weighted-interleave
	// knob.
	CXLPercent float64
	// SizeBytes overrides the workload's working-set size; 0 keeps the
	// calibrated default.
	SizeBytes int64
	// TargetQPS is the offered load for latency-oriented workloads.
	TargetQPS float64
	// Threads is the compute parallelism for throughput-oriented workloads
	// (DLRM threads, SPEC instances, fluid MLP streams).
	Threads int
	// Ops is the operation/sample count before quick-mode scaling.
	Ops int
	// Seed perturbs the stochastic components; 0 keeps the default.
	Seed uint64
}

// Metric is one named measurement of a workload run.
type Metric struct {
	// Name identifies the measurement ("p99_us", "max_qps", ...).
	Name string
	// Value is the measurement in Unit.
	Value float64
	// Unit is the human-readable unit ("us", "qps", "GB/s", ...).
	Unit string
}

// Metrics is an ordered list of measurements. Order is part of the
// contract: the first metric is the workload's primary figure of merit and
// tables render metrics in insertion order, keeping golden files stable.
type Metrics struct {
	// Items holds the measurements in insertion order.
	Items []Metric
}

// Add appends one measurement.
func (m *Metrics) Add(name string, value float64, unit string) {
	m.Items = append(m.Items, Metric{Name: name, Value: value, Unit: unit})
}

// Primary returns the first (headline) metric, or a zero Metric when empty.
func (m Metrics) Primary() Metric {
	if len(m.Items) == 0 {
		return Metric{}
	}
	return m.Items[0]
}

// Dataset converts the ordered metrics into a typed results.Dataset — one
// row per metric in insertion order, values kept at full precision. This is
// the structured form the emitter layer (results: text/json/csv) and the
// cxlserve scenario endpoint render from; callers stamp provenance on the
// returned dataset.
func (m Metrics) Dataset(id, title string) *results.Dataset {
	d := results.New(id, title,
		results.Column{Name: "Metric"}, results.Column{Name: "Value"}, results.Column{Name: "Unit"})
	for _, it := range m.Items {
		d.AddRow(results.Str(it.Name), results.Num(it.Value, 2), results.Str(it.Unit))
	}
	return d
}

// MetricsFromDataset inverts Metrics.Dataset: it recovers the ordered
// metric list from a per-metric dataset (the /v1/scenario wire form). The
// JSON emitter is lossless, so a round trip through a remote replica
// preserves every value bit-for-bit — the property the cluster
// coordinator's byte-identical merge relies on.
func MetricsFromDataset(d *results.Dataset) (Metrics, error) {
	var m Metrics
	for i, row := range d.Rows {
		if len(row) != 3 {
			return Metrics{}, fmt.Errorf("workloads: dataset %q row %d has %d cells, want 3 (Metric, Value, Unit)", d.ID, i, len(row))
		}
		v, ok := row[1].Value()
		if !ok {
			return Metrics{}, fmt.Errorf("workloads: dataset %q row %d value cell is not numeric", d.ID, i)
		}
		m.Add(row[0].Str, v, row[2].Str)
	}
	return m, nil
}

// Workload is one runnable application model: an entry of the registry
// table.
type Workload struct {
	// Name is the registry key ("ycsb", "dlrm", ...).
	Name string
	// Desc is a one-line description with the paper anchor.
	Desc string
	// Variants lists the accepted Config.Variant values, canonical name
	// first; aliases are resolved by Run.
	Variants []string
	// Defaults is a runnable calibrated configuration.
	Defaults Config
	// Run executes the workload under env with the given configuration and
	// returns its metrics. It must be deterministic for a fixed (env, cfg)
	// and safe for concurrent use with distinct envs.
	Run func(env *Env, cfg Config) (Metrics, error)
	// Trace, set only for a workload that runs on the discrete-event
	// scheduler and emits a time series (tpp-timeline), runs it exactly as
	// Run does with taps attached to the scheduler before the first event.
	// The matrix experiments skip such workloads: their primary output is
	// a timeline, not a placement-comparable scalar.
	Trace func(env *Env, cfg Config, taps ...sim.Tap) error
}

// errUnknownVariant formats the shared unknown-variant failure.
func errUnknownVariant(workload, variant string, accepted []string) error {
	return fmt.Errorf("workloads: %s has no variant %q (accepted: %v)", workload, variant, accepted)
}
