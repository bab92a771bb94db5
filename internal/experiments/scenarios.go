// Scenario-matrix engine (DESIGN.md §8).
//
// The matrix experiments take the cross product of {workload × interleaving
// policy × working-set size × platform profile} from the internal/workloads
// and internal/topo registries and
// dispatch every cell through the parallel sweep engine (sweep.go). The
// options fold into each cell once: the spec's unset platform= and seed=
// take the options' platform and non-default seed (DESIGN.md §32), and the
// folded spec is what runs. Cells are memoized process-wide in a memo.Cache
// keyed by the folded spec plus the fingerprint of quick mode, so cells
// shared between matrices or requests — and the serial/parallel double runs
// of the equivalence tests — are computed once. Cell values are structured
// workloads.Metrics; formatting happens only at the emitter layer
// (DESIGN.md §10).
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

// cellCache memoizes evaluated matrix cells for the lifetime of the
// process. Cell values depend only on the folded spec and quick mode —
// never on the worker count — so caching preserves the byte-identical
// serial-vs-parallel contract.
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

// cell folds the options into one scenario cell: the spec's unset
// platform= takes the options' platform, and its unset seed= a non-default
// options seed. The folded spec names every input of the cell's bytes but
// quick mode, so the cell's key, environment and run derive from it alone,
// and requests that fold into one spec share one cell. A workload that
// reads no seed gets none. Folding a folded spec again under the same
// options returns it unchanged.
func (o Options) cell(sc workloads.Scenario) workloads.Scenario {
	if sc.Platform == "" {
		sc.Platform = o.Platform
	}
	if sc.Seed == 0 && o.withDefaultSeed().Seed != DefaultOptions().Seed {
		sc.Seed = o.Seed
	}
	if w, err := workloads.Get(sc.Workload); err == nil && !w.UsesSeed {
		sc.Seed = 0
	}
	return sc
}

// cellOptions canonicalizes the options a cell's provenance names: cells
// never simulate the buffer-latency hot path, so the fidelity tier cannot
// shape them, and a zero seed is the default seed.
func (o Options) cellOptions() Options {
	o.Fidelity = ""
	return o.withDefaultSeed()
}

// ScenarioKey returns the memo key of one (scenario, options) cell — the
// unit of distribution for cache sharding (DESIGN.md §14): the folded
// spec plus the fingerprint of quick mode alone, at the default seed, no
// platform and exact fidelity. At default options the fold leaves the spec
// as it is, so the key is the spec plus the options' own fingerprint, which
// TestCanonicalKeysPinned holds and which keeps every such key's ring
// owner across builds (DESIGN.md §32). The key writes the Table-1 platform
// as no platform, so a spec that names it shares the cell of one that
// does not.
func ScenarioKey(o Options, sc workloads.Scenario) string {
	cell := o.cell(sc)
	if cell.Platform == topo.DefaultPlatform {
		cell.Platform = ""
	}
	return cell.String() + "|" + Options{Quick: o.Quick, Seed: DefaultOptions().Seed}.fingerprint()
}

// scenarioEnv builds the workload environment for one folded cell on its
// platform (Table 1 when empty), so Scenario.Run's ForPlatform is a no-op
// and each cell builds exactly one System, with the options' quick mode
// and context; the context bounds the cell's run.
func (o Options) scenarioEnv(platform string) (*workloads.Env, error) {
	env, err := workloads.NewEnvOn(platform)
	if err != nil {
		return nil, err
	}
	env.Quick, env.Ctx = o.Quick, o.Ctx
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
	cell := o.cell(sc)
	v, err := cache.DoCtx(o.context(), ScenarioKey(o, sc), func(ctx context.Context) (any, error) {
		// Cells are the sweep engine's unit of work: a cell that lost every
		// waiter before starting is skipped, and a started one watches ctx,
		// the single-flight context, which ends when its last waiter leaves.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		co := o
		co.Ctx = ctx
		env, err := co.scenarioEnv(cell.Platform)
		if err != nil {
			return nil, err
		}
		return cell.Run(env)
	})
	if err != nil {
		return workloads.Metrics{}, err
	}
	return v.(workloads.Metrics), nil
}

// ScenarioResult evaluates one scenario cell (memoized) and returns its
// full metric list as a typed dataset — one row per metric, the caller's
// canonical spec and options in the provenance. This is the single-cell
// structured form served by cxlserve's /v1/scenario and the facade's
// RunScenarioDataset.
func ScenarioResult(o Options, sc workloads.Scenario) (*results.Dataset, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
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
	o = o.cellOptions()
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
	o = o.cellOptions()
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
// keeps this matrix's golden invariant as event-driven workloads join the
// table.
func matrixAppsSpecs() []string {
	var specs []string
	for _, w := range workloads.All() {
		if w.Trace != nil {
			continue
		}
		for _, p := range matrixPlacements {
			specs = append(specs, fmt.Sprintf("%s/policy=%s", w.Name, p))
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
