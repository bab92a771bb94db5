// Adapters: one Workload implementation per model subpackage, registered at
// init. They live here (not in the subpackages) so the models never import
// their parent — see the package comment's layering rule.
package workloads

import (
	"fmt"
	"strings"

	"cxlmem/internal/cache"
	"cxlmem/internal/topo"
	"cxlmem/internal/workloads/dlrm"
	"cxlmem/internal/workloads/dsb"
	"cxlmem/internal/workloads/fio"
	"cxlmem/internal/workloads/fluid"
	"cxlmem/internal/workloads/kvstore"
	"cxlmem/internal/workloads/spec"
	"cxlmem/internal/workloads/ycsb"
)

func init() {
	Register(kvstoreWorkload{})
	Register(ycsbWorkload{})
	Register(dlrmWorkload{})
	Register(dsbWorkload{})
	Register(fioWorkload{})
	Register(specWorkload{})
	Register(fluidWorkload{})
}

// devicePath resolves cfg.Device against the environment's system without
// panicking on unknown names.
func devicePath(env *Env, name string) (*topo.Path, error) {
	for _, p := range env.Sys.Paths() {
		if p.Name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown device %q", name)
}

// kvConfigFor builds the kvstore config shared by the kvstore and ycsb
// adapters, the one place the Redis figures are configured: quick mode
// shrinks the default keyspace to 100k keys; an explicit size overrides
// both.
func kvConfigFor(env *Env, cfg Config) kvstore.Config {
	kc := kvstore.DefaultConfig()
	if env.Quick {
		kc.Keys = 100_000
	}
	if cfg.SizeBytes > 0 {
		kc = kc.WithHeapBytes(cfg.SizeBytes)
	}
	kc.Seed = env.seed(cfg, kc.Seed)
	return kc
}

// kvstoreWorkload models Redis open-loop latency (§5.1, Fig. 6a/7).
type kvstoreWorkload struct{}

// Name implements Workload.
func (kvstoreWorkload) Name() string { return "kvstore" }

// Desc implements Workload.
func (kvstoreWorkload) Desc() string {
	return "Redis under open-loop YCSB-A load: p50/p99 latency and utilization (Fig. 6a)"
}

// Variants implements Workload: the key distribution of the op stream.
func (kvstoreWorkload) Variants() []string { return []string{"uniform", "zipfian"} }

// DefaultConfig implements Workload.
func (kvstoreWorkload) DefaultConfig() Config {
	return Config{Variant: "uniform", Device: "CXL-A", CXLPercent: 50, TargetQPS: 45000, Ops: 40000}
}

// Run implements Workload.
func (w kvstoreWorkload) Run(env *Env, cfg Config) (Metrics, error) {
	var dist ycsb.Distribution
	switch cfg.Variant {
	case "uniform":
		dist = ycsb.Uniform
	case "zipfian":
		dist = ycsb.Zipfian
	default:
		return Metrics{}, errUnknownVariant(w.Name(), cfg.Variant, w.Variants())
	}
	if _, err := devicePath(env, cfg.Device); err != nil {
		return Metrics{}, err
	}
	s := kvstore.New(env.Sys, kvConfigFor(env, cfg), cfg.Device, cfg.CXLPercent)
	res, err := s.RunOpenLoop(env.context(), ycsb.WorkloadA, dist, cfg.TargetQPS, ScaleOps(env.Quick, cfg.Ops))
	if err != nil {
		return Metrics{}, err
	}
	var m Metrics
	m.Add("p99_us", res.P99.Microseconds(), "us")
	m.Add("p50_us", res.P50.Microseconds(), "us")
	m.Add("mean_us", res.Mean.Microseconds(), "us")
	m.Add("utilization", res.Utilization, "frac")
	return m, nil
}

// ycsbWorkload models Redis maximum sustainable throughput across the YCSB
// core workload mixes (§5.2, Fig. 9b).
type ycsbWorkload struct{}

// Name implements Workload.
func (ycsbWorkload) Name() string { return "ycsb" }

// Desc implements Workload.
func (ycsbWorkload) Desc() string {
	return "Redis max sustainable QPS for a YCSB core workload mix (Fig. 9b)"
}

// Variants implements Workload: the YCSB letters; descriptive aliases
// (readmostly=b, readonly=c, updateheavy=a, readlatest=d, rmw=f) resolve to
// the same mixes.
func (ycsbWorkload) Variants() []string {
	return []string{"a", "b", "c", "d", "f", "updateheavy", "readmostly", "readonly", "readlatest", "rmw"}
}

// DefaultConfig implements Workload.
func (ycsbWorkload) DefaultConfig() Config {
	return Config{Variant: "a", Device: "CXL-A", CXLPercent: 50, Ops: 20000}
}

// Run implements Workload.
func (w ycsbWorkload) Run(env *Env, cfg Config) (Metrics, error) {
	mix, err := ycsb.WorkloadByAlias(cfg.Variant)
	if err != nil {
		return Metrics{}, errUnknownVariant(w.Name(), cfg.Variant, w.Variants())
	}
	if _, err := devicePath(env, cfg.Device); err != nil {
		return Metrics{}, err
	}
	kc := kvConfigFor(env, cfg)
	samples := ScaleOps(env.Quick, cfg.Ops)
	qps, err := kvstore.New(env.Sys, kc, cfg.Device, cfg.CXLPercent).MaxQPS(env.context(), mix, ycsb.Uniform, samples)
	if err != nil {
		return Metrics{}, err
	}
	base, err := kvstore.New(env.Sys, kc, cfg.Device, 0).MaxQPS(env.context(), mix, ycsb.Uniform, samples)
	if err != nil {
		return Metrics{}, err
	}
	var m Metrics
	m.Add("max_qps", qps, "qps")
	m.Add("vs_ddr", qps/base, "x")
	return m, nil
}

// dlrmWorkload models DLRM embedding-reduction throughput (§5.2, Fig. 9a,
// Table 3).
type dlrmWorkload struct{}

// Name implements Workload.
func (dlrmWorkload) Name() string { return "dlrm" }

// Desc implements Workload.
func (dlrmWorkload) Desc() string {
	return "DLRM embedding-reduction throughput under an SNC scenario (Fig. 9a, Table 3)"
}

// Variants implements Workload: the Table-3 SNC scenarios.
func (dlrmWorkload) Variants() []string { return []string{"alone", "contended", "nosnc"} }

// DefaultConfig implements Workload.
func (dlrmWorkload) DefaultConfig() Config {
	return Config{Variant: "alone", Device: "CXL-A", CXLPercent: 63, Threads: 32}
}

// Run implements Workload.
func (w dlrmWorkload) Run(env *Env, cfg Config) (Metrics, error) {
	sc, err := dlrm.ScenarioByName(cfg.Variant)
	if err != nil {
		return Metrics{}, errUnknownVariant(w.Name(), cfg.Variant, w.Variants())
	}
	if _, err := devicePath(env, cfg.Device); err != nil {
		return Metrics{}, err
	}
	dc := dlrm.DefaultConfig().WithTableBytes(cfg.SizeBytes)
	res := dlrm.Run(env.Sys, dc, cfg.Device, cfg.CXLPercent, cfg.Threads, sc)
	var m Metrics
	m.Add("mqps", res.QueriesPerSec/1e6, "Mq/s")
	m.Add("system_bw", res.Eq.TotalBandwidthGBs, "GB/s")
	m.Add("l1_miss_ns", res.Sample.L1MissLatencyNS, "ns")
	return m, nil
}

// dsbWorkload models the DeathStarBench three-tier pipeline (§5.1, Fig. 6b–d).
type dsbWorkload struct{}

// Name implements Workload.
func (dsbWorkload) Name() string { return "dsb" }

// Desc implements Workload.
func (dsbWorkload) Desc() string {
	return "DeathStarBench request pipeline p99 with the caching tier on DDR or CXL (Fig. 6b-d)"
}

// Variants implements Workload: the evaluated request types.
func (dsbWorkload) Variants() []string { return []string{"mixed", "compose", "readuser"} }

// DefaultConfig implements Workload. The caching tier moves to CXL for any
// positive CXLPercent — the paper evaluates only the all-or-nothing tier
// placement (Table 2).
func (dsbWorkload) DefaultConfig() Config {
	return Config{Variant: "mixed", Device: "CXL-A", CXLPercent: 100, TargetQPS: 8000, Ops: 20000}
}

// Run implements Workload.
func (w dsbWorkload) Run(env *Env, cfg Config) (Metrics, error) {
	dw, err := dsb.WorkloadByName(cfg.Variant)
	if err != nil {
		return Metrics{}, errUnknownVariant(w.Name(), cfg.Variant, w.Variants())
	}
	if _, err := devicePath(env, cfg.Device); err != nil {
		return Metrics{}, err
	}
	onCXL := cfg.CXLPercent > 0
	res, err := dsb.Run(env.context(), env.Sys, dw, cfg.Device, onCXL, cfg.TargetQPS, ScaleOps(env.Quick, cfg.Ops), env.seed(cfg, 23))
	if err != nil {
		return Metrics{}, err
	}
	var m Metrics
	m.Add("p99_ms", res.P99.Milliseconds(), "ms")
	m.Add("p50_ms", res.P50.Milliseconds(), "ms")
	sat := 0.0
	if res.Saturated {
		sat = 1
	}
	m.Add("saturated", sat, "bool")
	return m, nil
}

// fioWorkload models FIO random reads through a page cache on DDR or CXL
// memory (§5.1, Fig. 8).
type fioWorkload struct{}

// Name implements Workload.
func (fioWorkload) Name() string { return "fio" }

// Desc implements Workload.
func (fioWorkload) Desc() string {
	return "FIO random-read p99 with the page cache on DDR or CXL memory (Fig. 8)"
}

// Variants implements Workload: the Fig. 8 block sizes.
func (fioWorkload) Variants() []string {
	var out []string
	for _, b := range fio.BlockSizes() {
		out = append(out, fmt.Sprintf("%dk", b>>10))
	}
	return out
}

// DefaultConfig implements Workload. The page cache moves to CXL for any
// positive CXLPercent; SizeBytes resizes the page cache.
func (fioWorkload) DefaultConfig() Config {
	return Config{Variant: "4k", Device: "CXL-A", CXLPercent: 100, Ops: 40000}
}

// Run implements Workload.
func (w fioWorkload) Run(env *Env, cfg Config) (Metrics, error) {
	block, err := fio.BlockSizeByName(cfg.Variant)
	if err != nil {
		return Metrics{}, errUnknownVariant(w.Name(), cfg.Variant, w.Variants())
	}
	path := env.Sys.DDRLocal
	if cfg.CXLPercent > 0 {
		if path, err = devicePath(env, cfg.Device); err != nil {
			return Metrics{}, err
		}
	}
	fc := fio.DefaultConfig()
	if cfg.SizeBytes > 0 {
		fc.PageCacheBytes = cfg.SizeBytes
	}
	fc.Seed = env.seed(cfg, fc.Seed)
	res, err := fio.Run(env.context(), env.Sys, path, fc, block, ScaleOps(env.Quick, cfg.Ops))
	if err != nil {
		return Metrics{}, err
	}
	var m Metrics
	m.Add("p99_us", res.P99.Microseconds(), "us")
	m.Add("hit_rate", res.HitRate, "frac")
	return m, nil
}

// specWorkload models SPECrate CPU2017 mixes (§5.2, Fig. 13).
type specWorkload struct{}

// Name implements Workload.
func (specWorkload) Name() string { return "spec" }

// Desc implements Workload.
func (specWorkload) Desc() string {
	return "SPECrate CPU2017 surrogate throughput for a benchmark or the 4-way mix (Fig. 13)"
}

// Variants implements Workload: individual benchmarks or the 4-way mix.
// Names are lowercased to match the spec language's normalization.
func (specWorkload) Variants() []string {
	out := []string{"mix"}
	for _, p := range spec.Profiles() {
		out = append(out, strings.ToLower(p.Name))
	}
	return out
}

// DefaultConfig implements Workload. Threads is the total instance count,
// split evenly across the mix members.
func (specWorkload) DefaultConfig() Config {
	return Config{Variant: "mix", Device: "CXL-A", CXLPercent: 50, Threads: 8}
}

// Run implements Workload.
func (w specWorkload) Run(env *Env, cfg Config) (Metrics, error) {
	members, err := spec.MixByName(cfg.Variant, cfg.Threads)
	if err != nil {
		return Metrics{}, errUnknownVariant(w.Name(), cfg.Variant, w.Variants())
	}
	if _, err := devicePath(env, cfg.Device); err != nil {
		return Metrics{}, err
	}
	res := spec.Run(env.Sys, members, cfg.Device, cfg.CXLPercent)
	base := spec.Run(env.Sys, members, cfg.Device, 0)
	var m Metrics
	m.Add("gips", res.GIPS, "Gi/s")
	m.Add("vs_ddr", res.GIPS/base.GIPS, "x")
	m.Add("system_bw", res.Sample.SystemBandwidthGBs, "GB/s")
	return m, nil
}

// fluidWorkload exposes the bandwidth-equilibrium solver directly as a
// streaming microbenchmark: a footprint-based access stream split across
// DDR and a CXL device, reporting the converged operating point (§6,
// Fig. 11a's throughput/bandwidth feedback).
type fluidWorkload struct{}

// fluidHotFraction and fluidMLP fix the stream shape: half the accesses hit
// a hot eighth of the working set; each thread sustains 8 outstanding
// misses, like the DLRM gather loop.
const (
	fluidHotFraction = 0.5
	fluidMLP         = 8.0
)

// Name implements Workload.
func (fluidWorkload) Name() string { return "fluid" }

// Desc implements Workload.
func (fluidWorkload) Desc() string {
	return "raw bandwidth-equilibrium stream split across DDR and CXL (Fig. 11a feedback loop)"
}

// Variants implements Workload.
func (fluidWorkload) Variants() []string { return []string{"stream"} }

// DefaultConfig implements Workload. SizeBytes is the streamed working set.
func (fluidWorkload) DefaultConfig() Config {
	return Config{Variant: "stream", Device: "CXL-A", CXLPercent: 50, SizeBytes: 256 << 20, Threads: 16}
}

// Run implements Workload.
func (w fluidWorkload) Run(env *Env, cfg Config) (Metrics, error) {
	if cfg.Variant != "stream" {
		return Metrics{}, errUnknownVariant(w.Name(), cfg.Variant, w.Variants())
	}
	cxl, err := devicePath(env, cfg.Device)
	if err != nil {
		return Metrics{}, err
	}
	hot := cfg.SizeBytes / 8
	cold := cfg.SizeBytes - hot
	ddrLLC := env.Sys.Hier.EffectiveLLCBytes(cache.Home{Kind: cache.HomeLocalDDR})
	cxlLLC := env.Sys.Hier.EffectiveLLCBytes(cache.Home{Kind: cache.HomeRemote})
	f := cfg.CXLPercent / 100
	classes := []fluid.Class{
		{Path: env.Sys.DDRLocal, Weight: 1 - f, HitRate: fluid.FootprintHitRate(ddrLLC, hot, cold, fluidHotFraction)},
		{Path: cxl, Weight: f, HitRate: fluid.FootprintHitRate(cxlLLC, hot, cold, fluidHotFraction)},
	}
	eq := fluid.Solve(classes, func(avgLatNS float64) float64 {
		return float64(cfg.Threads) * fluidMLP / avgLatNS
	}, 60)
	var m Metrics
	m.Add("system_bw", eq.TotalBandwidthGBs, "GB/s")
	m.Add("access_rate", eq.AccessRateGps, "Ga/s")
	m.Add("avg_lat_ns", eq.AvgLatencyNS, "ns")
	return m, nil
}

// ensure the adapters satisfy the interface at compile time.
var (
	_ Workload = kvstoreWorkload{}
	_ Workload = ycsbWorkload{}
	_ Workload = dlrmWorkload{}
	_ Workload = dsbWorkload{}
	_ Workload = fioWorkload{}
	_ Workload = specWorkload{}
	_ Workload = fluidWorkload{}
)
