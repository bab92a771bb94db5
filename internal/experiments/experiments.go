// Package experiments regenerates every table and figure of the paper's
// evaluation from the simulated system. Each experiment is a named driver
// returning a typed results.Dataset whose rows mirror what the paper plots;
// rendering is a consumer concern handled by the results emitters (text,
// json, csv), and the cxlbench command, the cxlserve daemon and the
// repository-level benchmarks run drivers by ID.
//
// See DESIGN.md §3 for the experiment index, DESIGN.md §10 for the
// structured-results core, and EXPERIMENTS.md for the paper-vs-measured
// record.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"cxlmem/internal/memo"
	"cxlmem/internal/results"
)

// Typed sentinel errors: dispatch failures callers branch on with errors.Is
// (the cxlserve status mapping) instead of matching message substrings.
var (
	// ErrNotFound marks a lookup of an unregistered experiment ID.
	ErrNotFound = errors.New("unknown experiment id")
	// ErrInternal marks a recovered driver panic — an internal failure of
	// the experiment, not a bad request.
	ErrInternal = errors.New("driver panicked")
)

// Options tune an experiment run.
type Options struct {
	// Quick reduces sample counts so benchmarks stay fast; the full runs
	// are the defaults.
	Quick bool
	// Seed perturbs the stochastic components; 0 means the default seed,
	// as in DefaultOptions.
	Seed uint64
	// Parallel is the worker count for independent sweep points; 0 uses
	// every available CPU. Any value produces byte-identical tables — the
	// sweep engine orders results by operating-point index.
	Parallel int
	// Platform selects the registered platform profile scenario cells run
	// on by default (a cell's own platform= key wins); empty keeps the
	// Table-1 default. The paper's fixed figures always run on Table 1 and
	// ignore it.
	Platform string
	// Fidelity selects the measurement tier of the cache-simulating
	// experiments (fig5, ablation-llc): exact simulation (default), the CHE
	// analytic estimate (fast), or analytic-off-knee/exact-at-knee (auto).
	// Experiments without a simulated hot path ignore it.
	Fidelity Fidelity
	// Ctx, when non-nil, bounds the run: the sweep engine stops claiming
	// operating points once it is done and the dispatchers return the
	// context's error instead of a dataset. It is excluded from the memo
	// fingerprint — a deadline shapes *whether* a result arrives, never its
	// bytes — and canceled computations are not cached.
	Ctx context.Context
}

// DefaultOptions returns the full-fidelity settings.
func DefaultOptions() Options { return Options{Seed: 1} }

// Resolve turns options taken from a command line or the cxlmem facade into
// run options: platform and fidelity names are lowercased, the spelling the
// registries and memo keys use, a zero seed keeps the default seed, and the
// result is validated. cxlbench (through the facade) and cxlserve build
// their options with it, so both accept the same spellings.
func (o Options) Resolve() (Options, error) {
	o.Platform = strings.ToLower(o.Platform)
	o.Fidelity = Fidelity(strings.ToLower(string(o.Fidelity)))
	o = o.withDefaultSeed()
	if err := o.Validate(); err != nil {
		return Options{}, err
	}
	return o, nil
}

// fingerprint is the options part of every memo key: exactly the knobs that
// change a result's numbers. Parallel is excluded by design — results are
// byte-identical for every worker count (the serial-vs-parallel equivalence
// test pins it), so a cached value is valid across fan-outs. The constant
// fastwarm=false segment is the retired warmup knob (DESIGN.md §21): it
// stays so keys, ring ownership and saved snapshots do not move.
func (o Options) fingerprint() string {
	return fmt.Sprintf("quick=%t|fastwarm=false|seed=%d|platform=%s|fidelity=%s",
		o.Quick, o.Seed, o.Platform, o.fidelity())
}

// Experiment is a driver: an entry of the registry table.
type Experiment struct {
	// ID is the registry key.
	ID string
	// Desc is a one-line description.
	Desc string
	// Run executes the experiment and returns its typed dataset. The
	// returned dataset may be cached and emitted concurrently — callers and
	// drivers treat it as immutable once returned.
	Run func(Options) *results.Dataset
	// UsesPlatform marks drivers whose cells consume Options.Platform (the
	// matrix experiments). The paper's fixed figures measure the Table-1
	// machine and ignore the knob by construction, so for them RunDataset
	// blanks the platform before caching and provenance-stamping — the wire
	// form must never label Table-1 numbers with another machine.
	UsesPlatform bool
	// UsesFidelity marks drivers whose hot path consumes Options.Fidelity
	// (the buffer-latency sweeps). For every other experiment RunDataset
	// blanks the knob before caching and provenance-stamping, for the same
	// reason UsesPlatform blanks Platform.
	UsesFidelity bool
	// UsesSeed marks drivers that consume Options.Seed (the buffer-latency
	// sweeps, the DSB figures, tpp-timeline and the scenario matrices).
	// Every other driver pins its own seeds, so RunDataset caches it once,
	// under the default seed, and stamps only the caller's seed into the
	// provenance it returns (DESIGN.md §31).
	UsesSeed bool
}

// registry lists every experiment, sorted by ID. Each entry sets its own
// UsesPlatform, UsesFidelity and UsesSeed.
var registry = []Experiment{
	// Ablation experiments (DESIGN.md §6): each one disables a single
	// modeled mechanism to show that it — and nothing else — produces the
	// corresponding observation of the paper.
	{ID: "ablation-coherence", Desc: "disable remote-directory burst congestion (isolates O3)", Run: runAblationCoherence},
	{ID: "ablation-estimator", Desc: "Caption with the full counter set vs IPC only", Run: runAblationEstimator},
	{ID: "ablation-llc", Desc: "disable the SNC LLC-isolation break for CXL lines (isolates O6)", Run: runAblationLLC, UsesFidelity: true, UsesSeed: true},
	{ID: "fig11a", Desc: "DLRM throughput vs consumed system bandwidth (Fig. 11a)", Run: runFig11a},
	{ID: "fig11b", Desc: "DLRM throughput vs L1 miss latency (Fig. 11b)", Run: runFig11b},
	{ID: "fig12a", Desc: "Caption estimator vs DLRM throughput over a ratio sweep (Fig. 12a)", Run: runFig12a},
	{ID: "fig12b", Desc: "Caption autotuning SPEC-Mix: timeline and synchrony (Fig. 12b)", Run: runFig12b},
	{ID: "fig13", Desc: "Caption vs static 100:0 and 50:50 across benchmarks (Fig. 13)", Run: runFig13},
	{ID: "fig3", Desc: "random access latency, MLC + memo, normalized to DDR5-L (Fig. 3)", Run: runFig3},
	{ID: "fig4a", Desc: "MLC bandwidth efficiency across R/W mixes (Fig. 4a)", Run: runFig4a},
	{ID: "fig4b", Desc: "memo bandwidth efficiency per instruction type (Fig. 4b)", Run: runFig4b},
	{ID: "fig5", Desc: "SNC/LLC interaction: 32MB buffer latency (Fig. 5 / §4.3)", Run: runFig5, UsesFidelity: true, UsesSeed: true},
	{ID: "fig6a", Desc: "Redis YCSB-A p99 vs target QPS for 5 DDR:CXL ratios (Fig. 6a)", Run: runFig6a},
	{ID: "fig6b", Desc: "DSB compose-posts p99: caching tier on DDR vs CXL (Fig. 6b)", Run: dsbRunner("fig6b", "compose"), UsesSeed: true},
	{ID: "fig6c", Desc: "DSB read-user-timelines p99 (Fig. 6c)", Run: dsbRunner("fig6c", "readuser"), UsesSeed: true},
	{ID: "fig6d", Desc: "DSB mixed-workload p99, incl. the CXL-wins window (Fig. 6d)", Run: dsbRunner("fig6d", "mixed"), UsesSeed: true},
	{ID: "fig7", Desc: "Redis: TPP vs static 25% interleave latency distribution (Fig. 7)", Run: runFig7},
	{ID: "fig8", Desc: "FIO p99 vs block size with page cache on DDR vs CXL (Fig. 8)", Run: runFig8},
	{ID: "fig9a", Desc: "DLRM throughput vs threads for 7 allocation ratios (Fig. 9a)", Run: runFig9a},
	{ID: "fig9b", Desc: "Redis max QPS, YCSB A/B/C/D/F x 5 ratios, normalized (Fig. 9b)", Run: runFig9b},
	{ID: "matrix-apps", Desc: "scenario matrix: every registered workload x DDR/interleave/CXL placement", Run: runMatrixApps, UsesPlatform: true, UsesSeed: true},
	{ID: "matrix-platform", Desc: "scenario matrix: representative workloads x every registered platform profile", Run: runMatrixPlatform, UsesPlatform: true, UsesSeed: true},
	{ID: "matrix-policy", Desc: "scenario matrix: throughput workloads x 5 interleaving policies", Run: runMatrixPolicy, UsesPlatform: true, UsesSeed: true},
	{ID: "matrix-size", Desc: "scenario matrix: size-aware workloads x working-set sizes", Run: runMatrixSize, UsesPlatform: true, UsesSeed: true},
	{ID: "table1", Desc: "system and CXL device configurations (Table 1)", Run: runTable1},
	{ID: "table2", Desc: "DSB component working sets and placement (Table 2)", Run: runTable2},
	{ID: "table3", Desc: "DLRM: 1 vs 4 SNC nodes, DDR vs CXL 100% (Table 3)", Run: runTable3},
	{ID: "table4", Desc: "PMU counters Caption monitors (Table 4)", Run: runTable4},
	{ID: "tpp-timeline", Desc: "event-driven TPP migration timeline: per-epoch residency, migration throughput and latency under bursty load", Run: runTppTimeline, UsesSeed: true},
}

// Get returns the experiment with the given ID; the failure wraps
// ErrNotFound.
func Get(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: %w %q (try 'list')", ErrNotFound, id)
}

// All returns every experiment sorted by ID.
func All() []Experiment { return slices.Clone(registry) }

// IDs returns the experiment IDs, sorted.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	return ids
}

// datasetCache memoizes whole experiment datasets process-wide, so repeated
// RunDataset calls — a cxlserve daemon answering the same query, or the
// emitters re-rendering one run as text/json/csv — evaluate each
// (experiment, options) pair once. Keys exclude the worker count
// (Options.fingerprint), matching the byte-identity contract.
var datasetCache = memo.NewCache()

// ConfigureCaches applies one entry budget to both process-wide memo caches
// — the dataset cache and the scenario cell cache — evicting the least
// recently used settled entries past it; 0 keeps every settled result. cxlserve calls it from its
// -cache-entries flag.
func ConfigureCaches(maxEntries int) {
	cfg := memo.CacheConfig{MaxEntries: maxEntries}
	datasetCache.Configure(cfg)
	cellCache.Configure(cfg)
}

// CacheStats snapshots both process-wide memo caches for the cxlserve
// /metrics endpoint.
func CacheStats() (dataset, cell memo.CacheStats) {
	return datasetCache.Stats(), cellCache.Stats()
}

// recoverAsErr converts a recovered driver panic into the dispatcher's
// error. Drivers have no error return, so a canceled run — a sweep, an mlc
// warmup, a scenario cell — unwinds by panicking its context's error; that
// becomes the request's context error, which the memo layer never retains.
// Anything else wraps ErrInternal.
func recoverAsErr(id string, err *error) {
	r := recover()
	if r == nil {
		return
	}
	if v, ok := r.(error); ok && (errors.Is(v, context.Canceled) || errors.Is(v, context.DeadlineExceeded)) {
		*err = fmt.Errorf("experiments: %s: %w", id, v)
		return
	}
	*err = fmt.Errorf("experiments: %s %w: %v", id, ErrInternal, r)
}

// withDefaultSeed maps a zero seed to the default one, the meaning Resolve
// gives it, so seed 0 and seed 1 share one key, one provenance and one set
// of scenario specs on every front door.
func (o Options) withDefaultSeed() Options {
	if o.Seed == 0 {
		o.Seed = DefaultOptions().Seed
	}
	return o
}

// canonicalOptions blanks the option knobs that cannot shape this
// experiment's bytes, so equivalent runs share one cache entry and an
// honest provenance. Fixed figures ignore the platform knob (they always
// measure the Table-1 machine); experiments that never simulate the
// buffer-latency hot path produce identical bytes at any fidelity; drivers
// that pin their own seeds run at the default seed; a zero seed is the
// default seed.
func (e Experiment) canonicalOptions(o Options) Options {
	if !e.UsesPlatform {
		o.Platform = ""
	}
	if !e.UsesFidelity {
		o.Fidelity = ""
	}
	if !e.UsesSeed {
		o.Seed = 0
	}
	return o.withDefaultSeed()
}

// datasetKey is the dataset cache's memoization key for a canonicalized
// (experiment, options) pair.
func datasetKey(id string, o Options) string {
	return "experiment|" + id + "|" + o.fingerprint()
}

// DatasetKey returns the canonical memo key of one (experiment, options)
// dataset — the unit of distribution for cache sharding (DESIGN.md §14).
// It applies the same knob-blanking RunDataset does before caching, so a
// routing ring and the memo layer can never disagree about which replica
// owns a result. Unknown IDs wrap ErrNotFound.
func DatasetKey(id string, o Options) (string, error) {
	e, err := Get(id)
	if err != nil {
		return "", err
	}
	return datasetKey(id, e.canonicalOptions(o)), nil
}

// RunDataset runs the experiment with the given ID under the options and
// returns its dataset, memoized process-wide. The returned dataset is shared
// between callers: treat it as immutable and render it through the results
// emitters. Its provenance names the caller's seed even where the driver
// ignores the seed and every seed shares one entry. When the options carry
// a context, its cancellation aborts the run's sweep work (unless another
// caller still waits on the same key) and returns the context's error
// uncached.
func RunDataset(id string, o Options) (*results.Dataset, error) {
	e, err := Get(id)
	if err != nil {
		return nil, err
	}
	// Registered drivers treat cell failures as programming errors (panic),
	// so reject bad user-supplied options before dispatching.
	if err := o.Validate(); err != nil {
		return nil, err
	}
	seed := o.withDefaultSeed().Seed
	o = e.canonicalOptions(o)
	v, err := datasetCache.DoCtx(o.context(), datasetKey(id, o), func(cctx context.Context) (out any, err error) {
		// A panicking driver must become an error, not a poisoned entry;
		// recoverAsErr also returns a canceled run's context error.
		defer recoverAsErr(id, &err)
		ro := o
		ro.Ctx = cctx // the single-flight context: canceled when every waiter leaves
		return e.Run(ro), nil
	})
	if err != nil {
		return nil, err
	}
	d, ok := v.(*results.Dataset)
	if !ok {
		return nil, fmt.Errorf("experiments: %s produced no dataset", id)
	}
	if d.Prov.Seed != seed {
		// A seed-blind entry serves every seed; the copy shares its rows.
		stamped := *d
		stamped.Prov.Seed = seed
		d = &stamped
	}
	return d, nil
}

// newDataset starts a driver's dataset, stamping the run's provenance from
// the options.
func newDataset(o Options, id, title string, cols ...results.Column) *results.Dataset {
	d := results.New(id, title, cols...)
	d.Prov = results.Provenance{
		ExperimentID: id,
		Platform:     o.Platform,
		Quick:        o.Quick,
		Seed:         o.Seed,
		Fidelity:     o.provFidelity(),
	}
	return d
}

// col builds a dataset column: the display header (rendered verbatim) plus
// the machine-readable unit of its numeric cells.
func col(name, unit string) results.Column { return results.Column{Name: name, Unit: unit} }

// f2 formats a float at two decimals for compacted detail strings; tabular
// cells carry typed results.Num values instead.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
