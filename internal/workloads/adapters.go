// Adapters: one Run function per model subpackage, listed in the registry
// table. They live here (not in the subpackages) so the models never import
// their parent — see the package comment's layering rule. Each variant list
// is its own var: a Run that named its variants through its own table entry
// would make the table's initializer refer to itself.
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
	kc.Seed = cfg.seedOr(kc.Seed)
	return kc
}

// kvstoreVariants are the key distributions of the kvstore op stream.
var kvstoreVariants = []string{"uniform", "zipfian"}

// runKVStore models Redis open-loop latency (§5.1, Fig. 6a/7).
func runKVStore(env *Env, cfg Config) (Metrics, error) {
	var dist ycsb.Distribution
	switch cfg.Variant {
	case "uniform":
		dist = ycsb.Uniform
	case "zipfian":
		dist = ycsb.Zipfian
	default:
		return Metrics{}, errUnknownVariant("kvstore", cfg.Variant, kvstoreVariants)
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

// ycsbVariants are the YCSB letters; descriptive aliases (readmostly=b,
// readonly=c, updateheavy=a, readlatest=d, rmw=f) resolve to the same
// mixes.
var ycsbVariants = []string{"a", "b", "c", "d", "f", "updateheavy", "readmostly", "readonly", "readlatest", "rmw"}

// runYCSB models Redis maximum sustainable throughput across the YCSB core
// workload mixes (§5.2, Fig. 9b). vs_ddr is the throughput over the same
// store's all-DDR throughput; an all-DDR cell is its own baseline.
func runYCSB(env *Env, cfg Config) (Metrics, error) {
	mix, err := ycsb.WorkloadByAlias(cfg.Variant)
	if err != nil {
		return Metrics{}, errUnknownVariant("ycsb", cfg.Variant, ycsbVariants)
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
	base := qps
	if cfg.CXLPercent != 0 {
		if base, err = kvstore.New(env.Sys, kc, cfg.Device, 0).MaxQPS(env.context(), mix, ycsb.Uniform, samples); err != nil {
			return Metrics{}, err
		}
	}
	var m Metrics
	m.Add("max_qps", qps, "qps")
	m.Add("vs_ddr", qps/base, "x")
	return m, nil
}

// dlrmVariants are the Table-3 SNC scenarios.
var dlrmVariants = []string{"alone", "contended", "nosnc"}

// runDLRM models DLRM embedding-reduction throughput (§5.2, Fig. 9a,
// Table 3).
func runDLRM(env *Env, cfg Config) (Metrics, error) {
	sc, err := dlrm.ScenarioByName(cfg.Variant)
	if err != nil {
		return Metrics{}, errUnknownVariant("dlrm", cfg.Variant, dlrmVariants)
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

// dsbVariants are the evaluated DeathStarBench request types.
var dsbVariants = []string{"mixed", "compose", "readuser"}

// runDSB models the DeathStarBench three-tier pipeline (§5.1, Fig. 6b–d).
func runDSB(env *Env, cfg Config) (Metrics, error) {
	dw, err := dsb.WorkloadByName(cfg.Variant)
	if err != nil {
		return Metrics{}, errUnknownVariant("dsb", cfg.Variant, dsbVariants)
	}
	if _, err := devicePath(env, cfg.Device); err != nil {
		return Metrics{}, err
	}
	onCXL := cfg.CXLPercent > 0
	res, err := dsb.Run(env.context(), env.Sys, dw, cfg.Device, onCXL, cfg.TargetQPS, ScaleOps(env.Quick, cfg.Ops), cfg.seedOr(23))
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

// fioVariants are the Fig. 8 block sizes.
var fioVariants = func() []string {
	var out []string
	for _, b := range fio.BlockSizes() {
		out = append(out, fmt.Sprintf("%dk", b>>10))
	}
	return out
}()

// runFIO models FIO random reads through a page cache on DDR or CXL memory
// (§5.1, Fig. 8).
func runFIO(env *Env, cfg Config) (Metrics, error) {
	block, err := fio.BlockSizeByName(cfg.Variant)
	if err != nil {
		return Metrics{}, errUnknownVariant("fio", cfg.Variant, fioVariants)
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
	fc.Seed = cfg.seedOr(fc.Seed)
	res, err := fio.Run(env.context(), env.Sys, path, fc, block, ScaleOps(env.Quick, cfg.Ops))
	if err != nil {
		return Metrics{}, err
	}
	var m Metrics
	m.Add("p99_us", res.P99.Microseconds(), "us")
	m.Add("hit_rate", res.HitRate, "frac")
	return m, nil
}

// specVariants are the individual benchmarks and the 4-way mix. Names are
// lowercased to match the spec language's normalization.
var specVariants = func() []string {
	out := []string{"mix"}
	for _, p := range spec.Profiles() {
		out = append(out, strings.ToLower(p.Name))
	}
	return out
}()

// runSPEC models SPECrate CPU2017 mixes (§5.2, Fig. 13).
func runSPEC(env *Env, cfg Config) (Metrics, error) {
	members, err := spec.MixByName(cfg.Variant, cfg.Threads)
	if err != nil {
		return Metrics{}, errUnknownVariant("spec", cfg.Variant, specVariants)
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

// fluidVariants has the one stream shape.
var fluidVariants = []string{"stream"}

// fluidHotFraction and fluidMLP fix the stream shape: half the accesses hit
// a hot eighth of the working set; each thread sustains 8 outstanding
// misses, like the DLRM gather loop.
const (
	fluidHotFraction = 0.5
	fluidMLP         = 8.0
)

// runFluid exposes the bandwidth-equilibrium solver directly as a
// streaming microbenchmark: a footprint-based access stream split across
// DDR and a CXL device, reporting the converged operating point (§6,
// Fig. 11a's throughput/bandwidth feedback).
func runFluid(env *Env, cfg Config) (Metrics, error) {
	if cfg.Variant != "stream" {
		return Metrics{}, errUnknownVariant("fluid", cfg.Variant, fluidVariants)
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
