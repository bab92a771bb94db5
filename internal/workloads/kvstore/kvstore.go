// Package kvstore models Redis under YCSB load on the simulated system
// (paper §3.3, §5.1, §5.2): a single-threaded, in-memory key-value store
// whose µs-scale operations make it highly sensitive to memory access
// latency (finding F1).
//
// Each operation costs CPU time plus a memory component: a chain of
// *dependent* pointer hops through the dict entry and object headers (paying
// the serialized path latency of whichever device holds the key's pages)
// and a value transfer (overlapped, paying the parallel per-line latency).
// Updates additionally write the value back with temporal stores.
//
// Latency experiments run an open-loop (Poisson) arrival process against the
// single service thread — an M/G/1 queue — and report percentiles over the
// completed operations; throughput experiments report the maximum
// sustainable QPS, the reciprocal of the mean service time.
package kvstore

import (
	"fmt"

	"cxlmem/internal/mem"
	"cxlmem/internal/numa"
	"cxlmem/internal/sim"
	"cxlmem/internal/stats"
	"cxlmem/internal/topo"
	"cxlmem/internal/tpp"
	"cxlmem/internal/workloads/ycsb"
)

// recordOverheadBytes is the per-record metadata beyond the value: dict
// entry, robj and sds headers.
const recordOverheadBytes = 128

// Config sizes the store and its per-operation costs.
type Config struct {
	// Keys is the number of records.
	Keys int
	// ValueBytes is the value size per record.
	ValueBytes int
	// CPUPerOp is the compute cost per operation: parsing, dispatching,
	// protocol handling.
	CPUPerOp sim.Time
	// DictHops is the number of dependent pointer dereferences per lookup
	// (hash bucket -> entry -> robj -> sds header chain).
	DictHops int
	// Seed drives the generators.
	Seed uint64
}

// DefaultConfig returns a Redis-like configuration calibrated so the maximum
// sustainable QPS and the DDR-vs-CXL sensitivity match §5's measurements
// (~30 % throughput loss at CXL 100 % for YCSB-A).
func DefaultConfig() Config {
	return Config{
		Keys:       2_000_000,
		ValueBytes: 2048,
		CPUPerOp:   6 * sim.Microsecond,
		DictHops:   6,
		Seed:       11,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Keys <= 0 || c.ValueBytes <= 0 || c.DictHops < 0 || c.CPUPerOp < 0 {
		return fmt.Errorf("kvstore: invalid config %+v", c)
	}
	return nil
}

// WithHeapBytes returns a copy of the config with the key count resized so
// the store's heap (value + per-record metadata, the same accounting New
// uses) totals approximately heapBytes. At least one key is kept.
func (c Config) WithHeapBytes(heapBytes int64) Config {
	if heapBytes <= 0 {
		return c
	}
	keys := heapBytes / int64(c.ValueBytes+recordOverheadBytes)
	if keys < 1 {
		keys = 1
	}
	c.Keys = int(keys)
	return c
}

// Store is one Redis instance whose heap pages are spread across DDR and a
// CXL device by a NUMA policy.
type Store struct {
	cfg   Config
	sys   *topo.System
	space *numa.Space
	paths []*topo.Path // indexed by node ID: 0 = DDR, 1 = CXL
	rng   *sim.Rng

	bytesPerKey int
	pagesPerKey int

	// Per-node operation cost tables, precomputed at construction: path
	// latencies are pure functions of the (immutable) topology, and
	// ServiceTime is the hottest per-op code in every latency and
	// throughput experiment.
	dictWalk  [2]sim.Time // CPUPerOp + DictHops dependent loads
	readCost  [2]sim.Time // value transfer, loads
	writeCost [2]sim.Time // value write-back, temporal stores
}

// New builds a store with cxlPercent of its pages interleaved onto the named
// CXL device (0 = all DDR, 100 = all CXL), matching the paper's use of the
// weighted-interleave mempolicy.
func New(sys *topo.System, cfg Config, cxlName string, cxlPercent float64) *Store {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	space := numa.NewSpace(numa.NewDDRCXLSplit(cxlPercent))
	s := &Store{
		cfg:   cfg,
		sys:   sys,
		space: space,
		paths: []*topo.Path{sys.DDRLocal, sys.Path(cxlName)},
		rng:   sim.NewRng(cfg.Seed),
	}
	// Record = dict entry + object header + value, rounded to lines.
	s.bytesPerKey = cfg.ValueBytes + recordOverheadBytes
	s.pagesPerKey = (s.bytesPerKey + numa.PageBytes - 1) / numa.PageBytes
	if s.pagesPerKey == 0 {
		s.pagesPerKey = 1
	}
	space.Alloc(cfg.Keys * s.pagesPerKey)
	valueLines := sim.Time((cfg.ValueBytes + mem.CacheLineBytes - 1) / mem.CacheLineBytes)
	for node, p := range s.paths {
		s.dictWalk[node] = cfg.CPUPerOp + sim.Time(cfg.DictHops)*p.SerialLatency(mem.Load)
		s.readCost[node] = valueLines * p.ParallelLatency(mem.Load)
		s.writeCost[node] = valueLines * p.ParallelLatency(mem.Store)
	}
	return s
}

// pageOfKey maps a key to its first heap page.
func (s *Store) pageOfKey(key int) int {
	return (key % s.cfg.Keys) * s.pagesPerKey
}

// ServiceTime computes the full service time of one operation from the
// per-node cost tables: a dependent dict walk plus the value transfer.
func (s *Store) ServiceTime(op ycsb.Op) sim.Time {
	node := s.space.NodeOfPage(s.pageOfKey(op.Key))
	t := s.dictWalk[node]
	switch op.Type {
	case ycsb.Read:
		t += s.readCost[node]
	case ycsb.Update, ycsb.Insert:
		t += s.writeCost[node]
	case ycsb.ReadModifyWrite:
		t += s.readCost[node] + s.writeCost[node]
	}
	return t
}

// LatencyResult summarizes an open-loop run.
type LatencyResult struct {
	// TargetQPS is the offered load.
	TargetQPS float64
	// P50, P99 are latency percentiles over completed operations.
	P50, P99 sim.Time
	// Mean is the mean latency.
	Mean sim.Time
	// Utilization is the service thread's busy fraction.
	Utilization float64
	// Latencies holds the raw per-op latencies in nanoseconds, ascending
	// (for CDFs; stats.PercentileSorted reads it directly).
	Latencies []float64
}

// RunOpenLoop offers ops operations at targetQPS with Poisson arrivals and
// returns the latency distribution (M/G/1 through the single Redis thread).
func (s *Store) RunOpenLoop(w ycsb.Workload, dist ycsb.Distribution, targetQPS float64, ops int) LatencyResult {
	if targetQPS <= 0 || ops <= 0 {
		panic("kvstore: invalid open-loop parameters")
	}
	gen := ycsb.NewGenerator(w, s.cfg.Keys, dist, s.cfg.Seed+1)
	interarrival := 1e9 / targetQPS // ns

	var clock sim.Clock
	var serverFree sim.Time
	var busy sim.Time
	lats := make([]sim.Time, 0, ops)
	arrival := sim.Time(0)
	for i := 0; i < ops; i++ {
		arrival += s.rng.ExpNanoseconds(interarrival)
		op := gen.Next()
		svc := s.ServiceTime(op)
		start := arrival
		if serverFree > start {
			start = serverFree
		}
		done := start + svc
		serverFree = done
		busy += svc
		clock.AdvanceTo(done)
		lats = append(lats, done-arrival)
	}
	return s.summarize(targetQPS, lats, busy, clock.Now())
}

// summarize sorts lats (in place) into the result's ascending nanosecond
// latencies and reduces them to percentiles, mean and utilization.
func (s *Store) summarize(qps float64, lats []sim.Time, busy, elapsed sim.Time) LatencyResult {
	var sorter sim.TimeSorter
	ns := sorter.SortedNanoseconds(nil, lats)
	util := 0.0
	if elapsed > 0 {
		util = float64(busy) / float64(elapsed)
		if util > 1 {
			util = 1
		}
	}
	return LatencyResult{
		TargetQPS:   qps,
		P50:         sim.FromNanoseconds(stats.PercentileSorted(ns, 50)),
		P99:         sim.FromNanoseconds(stats.PercentileSorted(ns, 99)),
		Mean:        sim.FromNanoseconds(stats.Mean(ns)),
		Utilization: util,
		Latencies:   ns,
	}
}

// MaxQPS estimates the maximum sustainable throughput: the reciprocal of the
// mean service time of the single-threaded store under the workload.
func (s *Store) MaxQPS(w ycsb.Workload, dist ycsb.Distribution, samples int) float64 {
	if samples <= 0 {
		panic("kvstore: non-positive sample count")
	}
	gen := ycsb.NewGenerator(w, s.cfg.Keys, dist, s.cfg.Seed+2)
	var total sim.Time
	for i := 0; i < samples; i++ {
		total += s.ServiceTime(gen.Next())
	}
	mean := float64(total) / float64(samples) // ps
	return 1e12 / mean
}

// TPPResult compares TPP-managed placement against a static interleave.
type TPPResult struct {
	// TPP and Static are the latency distributions (ns) of the two runs.
	TPP, Static LatencyResult
	// Migrations counts TPP page moves during the measured window.
	Migrations int64
}

// RunWithTPP reproduces the Fig. 7 experiment: the store starts with 100 %
// of pages on CXL; TPP migrates pages toward its 75 % DDR target. Once the
// warm migration completes, latency is measured while TPP keeps scanning
// (and, with skewed access, keeps migrating), charging each window the
// migration stall penalty of §5.1. The baseline statically interleaves 25 %
// of pages to CXL and never migrates.
func RunWithTPP(sys *topo.System, cfg Config, cxlName string, targetQPS float64, ops int) TPPResult {
	// Static baseline: 25 % of (random) pages on CXL, uniform keys — the
	// paper's default distribution.
	static := New(sys, cfg, cxlName, 25)
	staticRes := static.RunOpenLoop(ycsb.WorkloadA, ycsb.Uniform, targetQPS, ops)

	// TPP run. The paper starts with 100 % of pages on CXL, lets TPP
	// migrate until 25 % remain there, and measures only afterwards; we
	// start the measured phase from that post-warm state directly.
	store := New(sys, cfg, cxlName, 100)
	warmRng := sim.NewRng(cfg.Seed + 4)
	for _, p := range warmRng.Perm(store.space.Pages())[:store.space.Pages()*3/4] {
		store.space.Move(p, 0)
	}
	engine := tpp.NewEngine(tpp.DefaultConfig(), store.space)
	cost := tpp.DefaultCostModel()
	gen := ycsb.NewGenerator(ycsb.WorkloadA, cfg.Keys, ycsb.Uniform, cfg.Seed+3)

	// Measured phase: open-loop. Promotions are NUMA hint faults — the
	// unlucky operation that touches the sampled page performs the
	// migration synchronously (SyncCost); demotions run in the background
	// and are charged as a controller-occupancy penalty on the window.
	scanWindow := 100 * sim.Millisecond
	copyBW := sys.Path(cxlName).Device.EffectiveGBs(0.5)
	syncCost := cost.SyncCost(copyBW)
	interarrival := 1e9 / targetQPS
	var serverFree, busy sim.Time
	var clock sim.Clock
	arrival := sim.Time(0)
	nextScan := scanWindow
	var penalty sim.Time
	var pendingSync int
	var migrations int64
	lats := make([]sim.Time, 0, ops)
	for i := 0; i < ops; i++ {
		arrival += store.rng.ExpNanoseconds(interarrival)
		for arrival >= nextScan {
			migs := engine.Scan()
			migrations += int64(len(migs))
			promotions := 0
			for _, m := range migs {
				if m.To == 0 {
					promotions++
				}
			}
			pendingSync += promotions
			penalty = cost.StallPenalty(len(migs)-promotions, scanWindow, copyBW)
			nextScan += scanWindow
		}
		op := gen.Next()
		engine.RecordAccess(uint64(store.pageOfKey(op.Key)) * numa.PageBytes)
		svc := store.ServiceTime(op) + penalty
		if pendingSync > 0 {
			svc += syncCost
			pendingSync--
		}
		start := arrival
		if serverFree > start {
			start = serverFree
		}
		done := start + svc
		serverFree = done
		busy += svc
		clock.AdvanceTo(done)
		lats = append(lats, done-arrival)
	}
	return TPPResult{
		TPP:        store.summarize(targetQPS, lats, busy, clock.Now()),
		Static:     staticRes,
		Migrations: migrations,
	}
}
