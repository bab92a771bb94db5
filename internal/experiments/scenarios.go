// Scenario-matrix engine (DESIGN.md §8).
//
// The matrix experiments take the cross product of {workload × interleaving
// policy × working-set size × platform profile} from the internal/workloads
// and internal/topo registries and
// dispatch every cell through the parallel sweep engine (sweep.go). Cells
// are memoized process-wide in a memo.Cache keyed by the canonical scenario
// spec plus an options fingerprint, so cells shared between matrices — and
// the serial/parallel double runs of the equivalence tests — are computed
// once. Cell values are structured workloads.Metrics; formatting happens
// only at the emitter layer (DESIGN.md §10).
package experiments

import (
	"context"
	"fmt"
	"strings"

	"cxlmem/internal/memo"
	"cxlmem/internal/results"
	"cxlmem/internal/topo"
	"cxlmem/internal/workloads"
)

func init() {
	registerMatrix("matrix-apps", "scenario matrix: every registered workload x DDR/interleave/CXL placement", runMatrixApps)
	registerMatrix("matrix-policy", "scenario matrix: throughput workloads x 5 interleaving policies", runMatrixPolicy)
	registerMatrix("matrix-size", "scenario matrix: size-aware workloads x working-set sizes", runMatrixSize)
	registerMatrix("matrix-platform", "scenario matrix: representative workloads x every registered platform profile", runMatrixPlatform)
}

// cellCache memoizes evaluated matrix cells for the lifetime of the
// process. Cell values depend only on the canonical spec and the options
// fingerprint — never on the worker count — so caching preserves the
// byte-identical serial-vs-parallel contract.
var cellCache = memo.NewCache()

// Validate reports option errors a dispatching caller can surface cleanly —
// currently an unregistered platform name, which would otherwise fail (or,
// inside the code-defined matrix drivers, panic) only once a cell runs.
func (o Options) Validate() error {
	if o.Platform != "" {
		if _, err := topo.PlatformByName(o.Platform); err != nil {
			return err
		}
	}
	if _, err := ParseFidelity(string(o.Fidelity)); err != nil {
		return err
	}
	return nil
}

// cellKey is the memoization key of one (scenario, options) cell. The
// options' platform joins the fingerprint because a cell without its own
// platform= key inherits it — cached values must never leak across machines.
func (o Options) cellKey(sc workloads.Scenario) string {
	return sc.String() + "|" + o.fingerprint()
}

// ScenarioKey returns the canonical memo key of one (scenario, options)
// cell — the unit of distribution for cache sharding (DESIGN.md §14), with
// the same fidelity blanking the scenario dispatchers apply before caching:
// scenario cells never simulate the buffer-latency hot path, so the tier
// cannot fork their keys.
func ScenarioKey(o Options, sc workloads.Scenario) string {
	o.Fidelity = ""
	return o.cellKey(sc)
}

// scenarioEnv builds the workload environment for one cell: the cell's own
// platform when it names one (so Scenario.Run's ForPlatform is a no-op and
// each cell builds exactly one System), the options' platform otherwise,
// Table 1 when neither is set — with the cross-cutting run knobs. The
// default experiment seed keeps each workload's calibrated seed; an
// explicit -seed override perturbs every cell. The options' context bounds
// the cell's event-driven runs.
func (o Options) scenarioEnv(cellPlatform string) (*workloads.Env, error) {
	platform := cellPlatform
	if platform == "" {
		platform = o.Platform
	}
	env, err := workloads.NewEnvOn(platform)
	if err != nil {
		return nil, err
	}
	env.Quick = o.Quick
	if o.Seed != DefaultOptions().Seed {
		env.Seed = o.Seed
	}
	env.Ctx = o.Ctx
	return env, nil
}

// RunScenario evaluates one scenario cell under the options, memoized in
// the process-wide cell cache. Each fresh evaluation builds a private
// system, so concurrent cells never share mutable state. Options.Ctx bounds
// the caller's wait, and an event-driven cell stops at its next epoch
// boundary once every waiter has left; a canceled cell is never cached.
func RunScenario(o Options, sc workloads.Scenario) (workloads.Metrics, error) {
	return runScenarioCached(cellCache, o, sc)
}

// runScenarioCached is RunScenario against an explicit cache — the
// serial-vs-parallel test passes fresh caches so memoization cannot mask a
// concurrency bug in cell evaluation.
func runScenarioCached(cache *memo.Cache, o Options, sc workloads.Scenario) (workloads.Metrics, error) {
	v, err := cache.DoCtx(o.context(), o.cellKey(sc), func(ctx context.Context) (any, error) {
		// Cells are the sweep engine's unit of work: a cell that lost every
		// waiter before starting is skipped. A started steady-state cell runs
		// to completion; an event-driven one watches ctx, the single-flight
		// context, which ends when its last waiter leaves.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		co := o
		co.Ctx = ctx
		env, err := co.scenarioEnv(sc.Platform)
		if err != nil {
			return nil, err
		}
		return sc.Run(env)
	})
	if err != nil {
		return workloads.Metrics{}, err
	}
	return v.(workloads.Metrics), nil
}

// ScenarioResult evaluates one scenario cell (memoized) and returns its
// full metric list as a typed dataset — one row per metric, the scenario's
// canonical spec in the provenance. This is the single-cell structured form
// served by cxlserve's /v1/scenario and the facade's RunScenarioDataset.
func ScenarioResult(o Options, sc workloads.Scenario) (*results.Dataset, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	// Scenario cells never simulate the buffer-latency hot path, so the
	// fidelity knob cannot shape them: blank it (post-validation) to keep
	// one cell-cache entry and an unlabeled provenance.
	o.Fidelity = ""
	m, err := RunScenario(o, sc)
	if err != nil {
		return nil, err
	}
	return ScenarioResultFromCell(o, sc, m), nil
}

// ScenarioResultFromCell assembles the single-cell dataset ScenarioResult
// returns from an already-evaluated cell — the assembly half, shared with
// the cluster coordinator so a remotely fetched cell renders byte-identical
// to a local run.
func ScenarioResultFromCell(o Options, sc workloads.Scenario, m workloads.Metrics) *results.Dataset {
	d := m.Dataset("scenario", "scenario "+sc.String())
	d.Prov = results.Provenance{
		ExperimentID: "scenario",
		Platform:     o.Platform,
		Scenario:     sc.String(),
		Quick:        o.Quick,
		Seed:         o.Seed,
	}
	return d
}

// ParseScenarios parses a list of spec strings, failing on the first bad one.
func ParseScenarios(specs []string) ([]workloads.Scenario, error) {
	out := make([]workloads.Scenario, len(specs))
	for i, s := range specs {
		sc, err := workloads.ParseScenario(s)
		if err != nil {
			return nil, err
		}
		out[i] = sc
	}
	return out, nil
}

// ScenarioDataset evaluates the scenarios across the options' worker pool
// and returns them as one dataset, one row per cell in input order: the
// headline metric plus the remaining metrics compacted into a detail column.
func ScenarioDataset(o Options, id, title string, scs []workloads.Scenario) (*results.Dataset, error) {
	return scenarioDatasetCached(cellCache, o, id, title, scs)
}

// scenarioDatasetCached is ScenarioDataset against an explicit cell cache.
func scenarioDatasetCached(cache *memo.Cache, o Options, id, title string, scs []workloads.Scenario) (*results.Dataset, error) {
	// As in ScenarioResult: fidelity cannot shape scenario cells, so it
	// must not fork their cache entries or label their provenance.
	o.Fidelity = ""
	type cell struct {
		m   workloads.Metrics
		err error
	}
	cells := sweepPoints(o, len(scs), func(i int) cell {
		m, err := runScenarioCached(cache, o, scs[i])
		return cell{m, err}
	})
	metrics := make([]workloads.Metrics, len(cells))
	for i, c := range cells {
		if c.err != nil {
			return nil, fmt.Errorf("experiments: scenario %q: %w", scs[i], c.err)
		}
		metrics[i] = c.m
	}
	return ScenarioDatasetFromCells(o, id, title, scs, metrics), nil
}

// ScenarioDatasetFromCells assembles the scenario-list dataset from
// already-evaluated cell metrics, cells[i] belonging to scs[i]. It is the
// assembly half of ScenarioDataset, shared with the cluster coordinator:
// cells fetched from remote replicas merge through the exact same row
// construction, which is what makes a distributed matrix run byte-identical
// to local serial execution (remote values arrive through the lossless JSON
// wire form, so no precision is lost on the way).
func ScenarioDatasetFromCells(o Options, id, title string, scs []workloads.Scenario, cells []workloads.Metrics) *results.Dataset {
	o.Fidelity = ""
	d := newDataset(o, id, title,
		col("Scenario", ""), col("Metric", ""), col("Value", ""), col("Unit", ""), col("Detail", ""))
	for i, m := range cells {
		p := m.Primary()
		var detail []string
		if len(m.Items) > 1 {
			for _, it := range m.Items[1:] {
				detail = append(detail, fmt.Sprintf("%s=%s%s", it.Name, f2(it.Value), it.Unit))
			}
		}
		d.AddRow(results.Str(scs[i].String()), results.Str(p.Name), results.Num(p.Value, 2),
			results.Str(p.Unit), results.Str(strings.Join(detail, " ")))
	}
	return d
}

// mustScenarios parses code-defined matrix specs; a bad literal is a
// programming error.
func mustScenarios(specs []string) []workloads.Scenario {
	scs, err := ParseScenarios(specs)
	if err != nil {
		panic(err)
	}
	return scs
}

// mustScenarioDataset is ScenarioDataset for registered matrix experiments,
// whose code-defined cells cannot legitimately fail.
func mustScenarioDataset(o Options, id, title string, specs []string) *results.Dataset {
	d, err := ScenarioDataset(o, id, title, mustScenarios(specs))
	if err != nil {
		panic(err)
	}
	return d
}

// matrixPlacements are the coarse placement policies of matrix-apps.
var matrixPlacements = []string{"ddr", "interleave", "cxl"}

// matrixAppsSpecs crosses every registered steady-state workload with the
// coarse placements at default size. Event-driven workloads are skipped:
// their output is a timeline, not a placement-comparable scalar, and they
// have their own dedicated experiment (tpp-timeline) — skipping them also
// keeps this matrix's golden invariant as event-driven workloads register.
func matrixAppsSpecs() []string {
	var specs []string
	for _, w := range workloads.All() {
		if workloads.IsEventDriven(w) {
			continue
		}
		for _, p := range matrixPlacements {
			specs = append(specs, fmt.Sprintf("%s/policy=%s", w.Name(), p))
		}
	}
	return specs
}

func runMatrixApps(o Options) *results.Dataset {
	d := mustScenarioDataset(o, "matrix-apps",
		"every registered workload under DDR-only, 50:50 interleave, and CXL-only placement",
		matrixAppsSpecs())
	d.AddNote("latency workloads (kvstore, dsb, fio) degrade toward cxl; bandwidth-bound dlrm/fluid peak at an interior split (F1/F4)")
	return d
}

// matrixPolicySpecs sweeps the paper's weighted-interleave knob across the
// throughput-oriented workloads (the Fig. 9/13 axis).
func matrixPolicySpecs() []string {
	policies := []string{"ddr", "weighted:85,15", "interleave", "weighted:25,75", "cxl"}
	heads := []string{"ycsb:a", "dlrm", "spec:mix"}
	var specs []string
	for _, h := range heads {
		for _, p := range policies {
			specs = append(specs, fmt.Sprintf("%s/policy=%s", h, p))
		}
	}
	return specs
}

func runMatrixPolicy(o Options) *results.Dataset {
	d := mustScenarioDataset(o, "matrix-policy",
		"weighted-interleave sweep over the throughput workloads",
		matrixPolicySpecs())
	d.AddNote("paper F4: the best ratio is interior and workload-dependent — the knob Caption tunes at runtime (fig13)")
	return d
}

// matrixSizeSpecs sweeps working-set size over the size-aware workloads at
// a fixed 50:50 interleave.
func matrixSizeSpecs() []string {
	sizes := []string{"64M", "256M", "1G"}
	heads := []string{"kvstore", "fluid", "dlrm"}
	var specs []string
	for _, h := range heads {
		for _, s := range sizes {
			specs = append(specs, fmt.Sprintf("%s/policy=interleave/size=%s", h, s))
		}
	}
	return specs
}

func runMatrixSize(o Options) *results.Dataset {
	d := mustScenarioDataset(o, "matrix-size",
		"working-set size sweep at 50:50 interleave",
		matrixSizeSpecs())
	d.AddNote("size moves the LLC-resident share: small sets hide the CXL latency, large sets expose device bandwidth (O6)")
	return d
}

// matrixPlatformSpecs crosses a latency-, a bandwidth- and a
// stream-oriented workload with every registered platform profile, each
// cell running against the platform's default far device.
func matrixPlatformSpecs() []string {
	heads := []string{"kvstore", "dlrm", "fluid"}
	var specs []string
	for _, h := range heads {
		for _, p := range topo.PlatformNames() {
			specs = append(specs, fmt.Sprintf("%s/platform=%s", h, p))
		}
	}
	return specs
}

func runMatrixPlatform(o Options) *results.Dataset {
	d := mustScenarioDataset(o, "matrix-platform",
		"representative workloads across every registered platform profile",
		matrixPlatformSpecs())
	d.AddNote("the machine moves the numbers as much as the policy: ASIC x16 expanders close on DDR while the degraded FPGA collapses throughput (O2)")
	return d
}

// AllMatrixScenarios returns the union of every matrix experiment's cells
// in deterministic order, deduplicated by canonical spec — the -scenario
// all cross product.
func AllMatrixScenarios() []workloads.Scenario {
	var specs []string
	specs = append(specs, matrixAppsSpecs()...)
	specs = append(specs, matrixPolicySpecs()...)
	specs = append(specs, matrixSizeSpecs()...)
	specs = append(specs, matrixPlatformSpecs()...)
	seen := make(map[string]bool, len(specs))
	var uniq []string
	for _, s := range specs {
		sc := mustScenarios([]string{s})[0]
		if key := sc.String(); !seen[key] {
			seen[key] = true
			uniq = append(uniq, s)
		}
	}
	return mustScenarios(uniq)
}
