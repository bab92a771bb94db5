// The tpp-timeline adapter: the first event-driven workload, running on the
// internal/sim discrete-event scheduler instead of a closed-form model. It
// lives in its own file because it also introduces the EventDriven marker
// that keeps time-series workloads out of the steady-state matrix
// experiments.
package workloads

import (
	"sync"

	"cxlmem/internal/numa"
	"cxlmem/internal/sim"
	"cxlmem/internal/workloads/tpptimeline"
)

func init() {
	Register(timelineWorkload{})
}

// EventDriven is implemented by workloads that execute on the
// discrete-event scheduler and emit time series rather than steady-state
// scalars. The matrix experiments (matrix-apps, matrix-platform) skip
// event-driven workloads — their primary output is a timeline, not a single
// figure of merit — which keeps the pre-existing matrix goldens invariant as
// event-driven workloads join the registry.
type EventDriven interface {
	Workload
	// Trace runs the workload exactly as Run does, with taps attached to
	// its scheduler before the first event. Run attaches none.
	Trace(env *Env, cfg Config, taps ...sim.Tap) error
}

// IsEventDriven reports whether w runs on the discrete-event engine.
func IsEventDriven(w Workload) bool {
	_, ok := w.(EventDriven)
	return ok
}

// timelineEpochCap bounds the epoch count a spec can request, so a fuzzed or
// hostile ops= knob cannot schedule an unbounded simulation.
const timelineEpochCap = 5000

// timelineWorkload replays TPP promotion/demotion decisions as scheduled
// events over a bursty arrival process (ISSUE 8's event-driven proof).
type timelineWorkload struct{}

// Name implements Workload.
func (timelineWorkload) Name() string { return "tpp-timeline" }

// Desc implements Workload.
func (timelineWorkload) Desc() string {
	return "event-driven TPP migration timeline under bursty open-loop load (Fig. 7 mechanism, over time)"
}

// Variants implements Workload: bursty keeps the on/off phase modulation,
// steady holds the offered load flat at the base rate.
func (timelineWorkload) Variants() []string { return []string{"bursty", "steady"} }

// DefaultConfig implements Workload. CXLPercent is the *initial* far-tier
// share (the Fig. 7 cold start puts everything far), TargetQPS the base
// rate, and Ops the epoch count on the 5 ms sampling grid. Ops=200 holds in
// quick mode too: it overrides the 30 epochs of tpptimeline.Config.Quick,
// so a quick run (the tpp-timeline experiment, cxlbench -quick, cxlserve
// -quick) keeps Quick's 2048 pages but simulates the full 1 s horizon, about
// 150k arrivals, not 150 ms.
func (timelineWorkload) DefaultConfig() Config {
	return Config{Variant: "bursty", Device: "CXL-A", CXLPercent: 100, TargetQPS: 50_000, Ops: 200}
}

// Trace implements EventDriven.
func (timelineWorkload) Trace(env *Env, cfg Config, taps ...sim.Tap) error {
	_, err := RunTimeline(env, cfg, taps...)
	return err
}

// timelineConfigFor maps the generic knobs onto tpptimeline.Config: size
// resizes the page space, qps sets the base rate (bursts run at 6x base),
// ops is the epoch count, and the policy percent is the initial placement.
// A positive ops replaces the epoch count Quick chose, capped at 200 in
// quick mode.
func timelineConfigFor(env *Env, cfg Config) (tpptimeline.Config, error) {
	tc := tpptimeline.DefaultConfig()
	if env != nil && env.Quick {
		tc = tc.Quick()
	}
	switch cfg.Variant {
	case "bursty":
		// Keep the default burst modulation.
	case "steady":
		tc.BurstQPS = tc.BaseQPS
	default:
		return tpptimeline.Config{}, errUnknownVariant("tpp-timeline", cfg.Variant, timelineWorkload{}.Variants())
	}
	tc.FarPercent = cfg.CXLPercent
	if cfg.SizeBytes > 0 {
		pages := int(cfg.SizeBytes / numa.PageBytes)
		if pages < 64 {
			pages = 64
		}
		tc.Pages = pages
	}
	if cfg.TargetQPS > 0 {
		tc.BaseQPS = cfg.TargetQPS
		tc.BurstQPS = 6 * cfg.TargetQPS
		if cfg.Variant == "steady" {
			tc.BurstQPS = cfg.TargetQPS
		}
	}
	if cfg.Ops > 0 {
		tc.Epochs = cfg.Ops
		if tc.Epochs > timelineEpochCap {
			tc.Epochs = timelineEpochCap
		}
		// Quick mode stays quick even when a spec asks for a long horizon.
		if env != nil && env.Quick && tc.Epochs > 200 {
			tc.Epochs = 200
		}
	}
	tc.Seed = env.seed(cfg, tc.Seed)
	return tc, nil
}

// RunTimeline executes the tpp-timeline model under env with cfg's knob
// overrides, returning the full time series, with taps attached to the
// scheduler before its first event; only the /v1/trace replay passes any.
// The experiments driver calls this directly for the timeline dataset; the
// Workload adapter reduces the same result to summary metrics. A run whose
// env.Ctx ends stops at the next epoch boundary and returns the context's
// error. A completed run adds its scheduler counters to SimEvents.
func RunTimeline(env *Env, cfg Config, taps ...sim.Tap) (tpptimeline.Result, error) {
	tc, err := timelineConfigFor(env, cfg)
	if err != nil {
		return tpptimeline.Result{}, err
	}
	if _, err := devicePath(env, cfg.Device); err != nil {
		return tpptimeline.Result{}, err
	}
	res, err := tpptimeline.RunContext(env.context(), env.Sys, tc, cfg.Device, taps...)
	if err != nil {
		return tpptimeline.Result{}, err
	}
	simEvents.mu.Lock()
	simEvents.total.Enqueued += res.Events.Enqueued
	simEvents.total.Dispatched += res.Events.Dispatched
	simEvents.total.Completed += res.Events.Completed
	simEvents.mu.Unlock()
	return res, nil
}

var simEvents struct {
	mu    sync.Mutex
	total sim.SchedulerStats
}

// SimEvents returns the summed scheduler counters of every event-driven run
// this process has completed: all event traffic, whether or not a tap
// watched it (cxlserve's cxlserve_sim_events_total).
func SimEvents() sim.SchedulerStats {
	simEvents.mu.Lock()
	defer simEvents.mu.Unlock()
	return simEvents.total
}

// Run implements Workload: the timeline reduced to steady-state summary
// metrics over the last quarter of the epochs (the post-ramp regime).
func (w timelineWorkload) Run(env *Env, cfg Config) (Metrics, error) {
	res, err := RunTimeline(env, cfg)
	if err != nil {
		return Metrics{}, err
	}
	tail := res.Epochs[len(res.Epochs)*3/4:]
	var p99, mean, migs float64
	var n int
	for _, es := range tail {
		if es.Accesses == 0 {
			continue
		}
		p99 += es.P99
		mean += es.Mean
		migs += es.MigrationsPerSec
		n++
	}
	if n > 0 {
		p99 /= float64(n)
		mean /= float64(n)
		migs /= float64(n)
	}
	var m Metrics
	m.Add("p99_us", p99, "us")
	m.Add("mean_us", mean, "us")
	m.Add("migr_per_sec", migs, "1/s")
	m.Add("promotions", float64(res.Promotions), "pages")
	m.Add("demotions", float64(res.Demotions), "pages")
	m.Add("final_far_frac", res.FinalFarFraction, "frac")
	return m, nil
}

// ensure the adapter satisfies both interfaces at compile time.
var (
	_ Workload    = timelineWorkload{}
	_ EventDriven = timelineWorkload{}
)
