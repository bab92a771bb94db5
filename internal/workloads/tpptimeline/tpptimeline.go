// Package tpptimeline replays TPP promotion/demotion decisions as scheduled
// events on the internal/sim discrete-event engine — the first workload to
// use time, rather than steady state, as its primary axis.
//
// The model: an address space starts with FarPercent of its pages on the CXL
// tier. An open-loop arrival process (Poisson, modulated by an on/off burst
// phase) drives zipfian page accesses through an M/G/1 service loop while a
// TPP scan actor periodically promotes hot far pages and demotes cold local
// pages (internal/tpp, paper §5.1/Fig. 7 mechanism costs: synchronous
// hint-fault promotion charged to the unlucky access, demotion charged as a
// controller-occupancy stall on the window). An epoch actor snapshots the
// timeline — per-epoch local/far residency, migration throughput, and access
// latency percentiles — into the time-series the tpp-timeline experiment
// renders.
//
// Everything runs on one sim.Scheduler, so the run is deterministic by
// construction: same Config + seed ⇒ identical event order ⇒ identical
// timeline at any sweep-worker setting.
package tpptimeline

import (
	"context"
	"fmt"

	"cxlmem/internal/mem"
	"cxlmem/internal/numa"
	"cxlmem/internal/sim"
	"cxlmem/internal/stats"
	"cxlmem/internal/topo"
	"cxlmem/internal/tpp"
)

// Config parameterizes one timeline run.
type Config struct {
	// Pages is the size of the address space in 4 KB pages.
	Pages int
	// FarPercent is the share of pages initially placed on the CXL tier
	// (100 = everything starts far, the Fig. 7 cold-start).
	FarPercent float64
	// ZipfSkew is the access-popularity skew (s of a bounded zipfian).
	ZipfSkew float64
	// BaseQPS is the offered load during the off phase.
	BaseQPS float64
	// BurstQPS is the offered load during the on phase.
	BurstQPS float64
	// OnTime and OffTime are the burst phase durations.
	OnTime, OffTime sim.Time
	// Epoch is the timeline sampling interval; Epochs is how many to run.
	Epoch  sim.Time
	Epochs int
	// ScanEvery is the TPP scan interval.
	ScanEvery sim.Time
	// CPUPerAccess is the compute cost per access.
	CPUPerAccess sim.Time
	// AccessHops is the number of dependent pointer hops per access, each
	// paying the serialized path latency of the page's tier.
	AccessHops int
	// Seed drives the scheduler's random stream.
	Seed uint64
	// Policy is the TPP policy configuration.
	Policy tpp.Config

	// ctx, set only by RunContext, ends the run at the first epoch boundary
	// after it is done.
	ctx context.Context
}

// DefaultConfig returns a calibrated bursty timeline: a cold start with
// every page far, a 40 % duty-cycle burst between 50 k and 300 k QPS, and a
// one-second horizon sampled every 5 ms.
func DefaultConfig() Config {
	return Config{
		Pages:        8192,
		FarPercent:   100,
		ZipfSkew:     0.99,
		BaseQPS:      50_000,
		BurstQPS:     300_000,
		OnTime:       20 * sim.Millisecond,
		OffTime:      30 * sim.Millisecond,
		Epoch:        5 * sim.Millisecond,
		Epochs:       200,
		ScanEvery:    10 * sim.Millisecond,
		CPUPerAccess: 2 * sim.Microsecond,
		AccessHops:   4,
		Seed:         41,
		Policy:       tpp.DefaultConfig(),
	}
}

// Quick returns a shrunken copy for quick mode: a quarter of the pages over
// a 150 ms horizon, enough for the promotion ramp to be visible. Callers
// that set Epochs afterwards keep only the smaller page space: the
// tpp-timeline workload adapter's default of 200 epochs overrides the 30
// set here, so its quick runs, and the golden they pin, simulate 1 s and
// about 150k arrivals.
func (c Config) Quick() Config {
	c.Pages = 2048
	c.Epochs = 30
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Pages <= 0:
		return fmt.Errorf("tpptimeline: non-positive page count %d", c.Pages)
	case c.FarPercent < 0 || c.FarPercent > 100:
		return fmt.Errorf("tpptimeline: far percent %v out of [0,100]", c.FarPercent)
	case c.ZipfSkew <= 0:
		return fmt.Errorf("tpptimeline: non-positive zipf skew %v", c.ZipfSkew)
	case c.BaseQPS <= 0 || c.BurstQPS <= 0:
		return fmt.Errorf("tpptimeline: non-positive offered load")
	case c.OnTime <= 0 || c.OffTime <= 0:
		return fmt.Errorf("tpptimeline: non-positive phase duration")
	case c.Epoch <= 0 || c.Epochs <= 0:
		return fmt.Errorf("tpptimeline: non-positive epoch grid")
	case c.ScanEvery <= 0:
		return fmt.Errorf("tpptimeline: non-positive scan interval")
	case c.CPUPerAccess < 0 || c.AccessHops < 0:
		return fmt.Errorf("tpptimeline: negative access cost")
	}
	return c.Policy.Validate()
}

// EpochStat is one sample of the timeline.
type EpochStat struct {
	// Index is the epoch number, starting at 0.
	Index int
	// Start is the epoch's start time.
	Start sim.Time
	// LocalPages and FarPages are the tier residency at the epoch's end.
	LocalPages, FarPages int64
	// Promotions and Demotions count migrations within the epoch.
	Promotions, Demotions int64
	// Accesses counts arrivals served within the epoch.
	Accesses int64
	// MigrationsPerSec is the epoch's migration throughput.
	MigrationsPerSec float64
	// P99 and Mean summarize access latency within the epoch, in
	// microseconds (0 when the epoch saw no accesses).
	P99, Mean float64
}

// Result is the complete timeline of one run.
type Result struct {
	// Epochs holds one sample per configured epoch, in order.
	Epochs []EpochStat
	// Promotions, Demotions and Accesses are run totals.
	Promotions, Demotions, Accesses int64
	// FinalFarFraction is the far-tier residency at the end of the run.
	FinalFarFraction float64
	// Events is the scheduler's final event counters.
	Events sim.SchedulerStats
}

// state is the shared simulation state all actors mutate. Actors run
// strictly one at a time on the scheduler, so no locking is needed.
type state struct {
	cfg    Config
	space  *numa.Space
	engine *tpp.Engine
	zipf   *sim.Zipf
	// hopCost is the per-access memory cost by tier, precomputed.
	hopCost [2]sim.Time

	// M/G/1 server state.
	serverFree sim.Time
	// burst is true during the on phase.
	burst bool
	// TPP mechanism costs, charged to the accesses after each scan.
	charges *tpp.Charges

	// Per-epoch accumulators, reset at each boundary. epochNs is the
	// epoch's latencies sorted and in nanoseconds; it and the sorter's
	// buffer are reused across epochs.
	epochLats               []sim.Time
	epochNs                 []float64
	sorter                  sim.TimeSorter
	epochPromos, epochDemos int64
	epochAccesses           int64

	// Run totals and the timeline.
	totalAccesses int64
	timeline      []EpochStat
}

// rate returns the current offered load.
func (st *state) rate() float64 {
	if st.burst {
		return st.cfg.BurstQPS
	}
	return st.cfg.BaseQPS
}

// loadActor serves arrivals: one event per access, open loop.
type loadActor struct{ st *state }

// Name implements sim.Actor.
func (a *loadActor) Name() string { return "load" }

// Handle serves one arrival and schedules the next.
func (a *loadActor) Handle(s *sim.Scheduler, _ sim.Event) {
	st := a.st
	arrival := s.Now()
	page := st.zipf.Next()
	node := st.space.NodeOfPage(page)
	st.engine.RecordAccess(uint64(page) * numa.PageBytes)
	svc := st.cfg.CPUPerAccess + st.hopCost[node] + st.charges.Next()
	start := arrival
	if st.serverFree > start {
		start = st.serverFree
	}
	done := start + svc
	st.serverFree = done
	st.epochLats = append(st.epochLats, done-arrival)
	st.epochAccesses++
	st.totalAccesses++
	s.After(s.Rng().ExpNanoseconds(1e9/st.rate()), a, evArrival)
}

// phaseActor toggles the on/off burst phase.
type phaseActor struct{ st *state }

// Name implements sim.Actor.
func (a *phaseActor) Name() string { return "phase" }

// Handle flips the phase and schedules the next flip.
func (a *phaseActor) Handle(s *sim.Scheduler, _ sim.Event) {
	st := a.st
	st.burst = !st.burst
	d := st.cfg.OffTime
	if st.burst {
		d = st.cfg.OnTime
	}
	s.After(d, a, evPhase)
}

// scanActor runs the TPP policy every ScanEvery.
type scanActor struct{ st *state }

// Name implements sim.Actor.
func (a *scanActor) Name() string { return "tpp-scan" }

// Handle runs one scan, converts its migrations into mechanism costs, and
// schedules the next scan.
func (a *scanActor) Handle(s *sim.Scheduler, _ sim.Event) {
	st := a.st
	promos, demos := st.charges.Scan(st.engine.Scan())
	st.epochPromos += int64(promos)
	st.epochDemos += int64(demos)
	s.After(st.cfg.ScanEvery, a, evScan)
}

// epochActor snapshots the timeline at each epoch boundary.
type epochActor struct{ st *state }

// Name implements sim.Actor.
func (a *epochActor) Name() string { return "epoch" }

// Handle closes the epoch ending now and schedules the next boundary.
func (a *epochActor) Handle(s *sim.Scheduler, _ sim.Event) {
	st := a.st
	idx := len(st.timeline)
	start := sim.Time(idx) * st.cfg.Epoch
	es := EpochStat{
		Index:      idx,
		Start:      start,
		LocalPages: st.space.PagesOn(numa.DDR),
		FarPages:   st.space.PagesOn(numa.CXL),
		Promotions: st.epochPromos,
		Demotions:  st.epochDemos,
		Accesses:   st.epochAccesses,
		MigrationsPerSec: float64(st.epochPromos+st.epochDemos) /
			st.cfg.Epoch.Seconds(),
	}
	if len(st.epochLats) > 0 {
		st.epochNs = st.sorter.SortedNanoseconds(st.epochNs[:0], st.epochLats)
		es.P99 = stats.PercentileSorted(st.epochNs, 99) / 1e3
		es.Mean = stats.Mean(st.epochNs) / 1e3
	}
	st.timeline = append(st.timeline, es)
	st.epochLats = st.epochLats[:0]
	st.epochPromos, st.epochDemos, st.epochAccesses = 0, 0, 0
	if len(st.timeline) < st.cfg.Epochs {
		s.After(st.cfg.Epoch, a, evEpoch)
	}
}

// Shared stateless event values: the steady-state schedule allocates no
// event objects.
const (
	evArrival = sim.EventFunc("arrival")
	evPhase   = sim.EventFunc("phase-flip")
	evScan    = sim.EventFunc("tpp-scan")
	evEpoch   = sim.EventFunc("epoch")
)

// Run executes the timeline on sys with the far tier on the named CXL
// device. Any taps are attached to the scheduler before the first event, so
// they observe the complete trace. Run panics on an invalid config or an
// unknown device (the workloads adapter validates both first). Run is also
// RunContext's body, so the two cannot drift apart.
func Run(sys *topo.System, cfg Config, cxlName string, taps ...sim.Tap) Result {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	space := numa.NewSpace(numa.NewDDRCXLSplit(cfg.FarPercent))
	space.Alloc(cfg.Pages)
	far := sys.Path(cxlName)
	st := &state{
		cfg:     cfg,
		space:   space,
		engine:  tpp.NewEngine(cfg.Policy, space),
		charges: tpp.NewCharges(cfg.ScanEvery, far.Device.EffectiveGBs(0.5)),
	}
	for node, p := range [2]*topo.Path{sys.DDRLocal, far} {
		st.hopCost[node] = sim.Time(cfg.AccessHops) * p.SerialLatency(mem.Load)
	}

	s := sim.NewScheduler(cfg.Seed)
	for _, t := range taps {
		s.Tap(t)
	}
	st.zipf = sim.NewZipf(s.Rng().Split(), cfg.Pages, cfg.ZipfSkew)

	load := &loadActor{st: st}
	s.After(s.Rng().ExpNanoseconds(1e9/st.rate()), load, evArrival)
	s.Schedule(cfg.OffTime, &phaseActor{st: st}, evPhase)
	s.Schedule(cfg.ScanEvery, &scanActor{st: st}, evScan)
	s.Schedule(cfg.Epoch, &epochActor{st: st}, evEpoch)
	// One epoch at a time, so a context is checked every few thousand
	// events; splitting the horizon moves no event.
	for e := 1; e <= cfg.Epochs; e++ {
		if cfg.ctx != nil && cfg.ctx.Err() != nil {
			break
		}
		s.RunUntil(sim.Time(e) * cfg.Epoch)
	}

	var promos, demos int64
	for _, es := range st.timeline {
		promos += es.Promotions
		demos += es.Demotions
	}
	return Result{
		Epochs:           st.timeline,
		Promotions:       promos,
		Demotions:        demos,
		Accesses:         st.totalAccesses,
		FinalFarFraction: space.Fraction(numa.CXL),
		Events:           s.Stats(),
	}
}

// RunContext is Run under ctx: it checks ctx at every epoch boundary and,
// once ctx is done, stops there and returns ctx's error instead of a
// result. An invalid config is an error too, not a panic.
func RunContext(ctx context.Context, sys *topo.System, cfg Config, cxlName string, taps ...sim.Tap) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	cfg.ctx = ctx
	res := Run(sys, cfg, cxlName, taps...)
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return res, nil
}
