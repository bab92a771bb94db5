// The tpp-timeline experiment: the first event-driven driver, rendering the
// tpptimeline workload's per-epoch time series as a dataset, and the trace
// replays behind cxlserve's /v1/trace (DESIGN.md §13).
package experiments

import (
	"fmt"

	"cxlmem/internal/results"
	"cxlmem/internal/sim"
	"cxlmem/internal/workloads"
	"cxlmem/internal/workloads/tpptimeline"
)

func init() {
	register("tpp-timeline",
		"event-driven TPP migration timeline: per-epoch residency, migration throughput and latency under bursty load",
		runTppTimeline)
}

// timelineCell pairs a timeline result with its error through the sweep
// engine's value slot.
type timelineCell struct {
	r   tpptimeline.Result
	err error
}

// runTppTimeline executes the event-driven model once (a single scheduler is
// inherently serial, so any Options.Parallel setting produces the same
// bytes; the sweep engine wraps the run only for cancellation plumbing) and
// lays the timeline out one row per epoch. The run checks Options.Ctx at
// every epoch boundary; its context error is re-panicked here, and
// recoverAsErr returns it uncached.
func runTppTimeline(o Options) *results.Dataset {
	res := sweepPoints(o, 1, func(int) timelineCell {
		r, rerr := timelineRun(o)
		return timelineCell{r: r, err: rerr}
	})[0]
	if res.err != nil {
		panic(res.err)
	}
	d := newDataset(o, "tpp-timeline",
		"TPP promotion/demotion timeline under bursty open-loop load (event-driven engine)",
		col("Epoch", ""), col("t", "ms"), col("DDR pages", "pages"), col("CXL pages", "pages"),
		col("Promo", "pages"), col("Demo", "pages"), col("Migr/s", "1/s"),
		col("Accesses", "ops"), col("p99", "us"), col("mean", "us"))
	for _, es := range res.r.Epochs {
		d.AddRow(
			results.Int(int64(es.Index)),
			results.Num(es.Start.Milliseconds(), 1),
			results.Int(es.LocalPages),
			results.Int(es.FarPages),
			results.Int(es.Promotions),
			results.Int(es.Demotions),
			results.Num(es.MigrationsPerSec, 0),
			results.Int(es.Accesses),
			results.Num(es.P99, 2),
			results.Num(es.Mean, 2),
		)
	}
	d.AddNote("cold start: all pages far; TPP promotes toward its 75%% DDR target while bursts stress the M/G/1 tail (Fig. 7 mechanism over time)")
	return d
}

// timelineRun is the tpp-timeline driver's one run: the workload's default
// config on the options' environment, with taps attached to its scheduler.
func timelineRun(o Options, taps ...sim.Tap) (tpptimeline.Result, error) {
	env, err := o.scenarioEnv("")
	if err != nil {
		return tpptimeline.Result{}, err
	}
	w, err := workloads.Get("tpp-timeline")
	if err != nil {
		return tpptimeline.Result{}, err
	}
	return workloads.RunTimeline(env, w.DefaultConfig(), taps...)
}

// TraceDataset replays the event-driven run behind RunDataset(id, o) with
// taps attached to its scheduler. A run is a pure function of its memo key
// and the scheduler is deterministic, so the taps observe exactly the
// events behind the cached dataset. The replay neither reads nor fills the
// dataset cache. Only tpp-timeline runs on the scheduler: any other
// registered ID is refused, an unknown one wraps ErrNotFound.
func TraceDataset(id string, o Options, taps ...sim.Tap) error {
	e, err := Get(id)
	if err != nil {
		return err
	}
	if id != "tpp-timeline" {
		return fmt.Errorf("experiments: %s does not run on the event scheduler, so it has no event trace (only tpp-timeline does)", id)
	}
	if err := o.Validate(); err != nil {
		return err
	}
	if err := o.context().Err(); err != nil {
		return err
	}
	_, err = timelineRun(e.canonicalOptions(o), taps...)
	return err
}

// TraceScenario replays the event-driven cell behind ScenarioResult(o, sc)
// with taps attached to its scheduler, through the environment the cell
// path builds. It neither reads nor fills the cell cache. A cell whose
// workload is not event-driven is refused.
func TraceScenario(o Options, sc workloads.Scenario, taps ...sim.Tap) error {
	if err := o.Validate(); err != nil {
		return err
	}
	if err := o.context().Err(); err != nil {
		return err
	}
	env, err := o.scenarioEnv(sc.Platform)
	if err != nil {
		return err
	}
	return sc.Trace(env, taps...)
}
