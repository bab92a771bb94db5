package workloads

import (
	"reflect"
	"sync"
	"testing"

	"cxlmem/internal/sim"
	"cxlmem/internal/workloads/tpptimeline"
)

// TestConcurrentRunsCountEvents: timeline runs started together, half of
// them traced, each return exactly the result of the same run made alone; a
// traced run's ring holds exactly the events a ring attached to that lone
// run records; and SimEvents rises by the sum of the runs' scheduler
// counters, each run counted once, traced or not.
func TestConcurrentRunsCountEvents(t *testing.T) {
	const capacity = 1 << 16
	quickEnv := func() *Env {
		env := NewEnv()
		env.Quick = true
		return env
	}
	// 8 epochs (40 ms) keep each run's trace inside one ring.
	w, err := Get("tpp-timeline")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]Config, 4)
	for i := range cfgs {
		cfgs[i] = w.Defaults
		cfgs[i].Ops, cfgs[i].Seed = 8, uint64(11+i)
	}

	wantRes := make([]tpptimeline.Result, len(cfgs))
	wantTrace := make([][]sim.TraceEvent, len(cfgs))
	var wantEvents sim.SchedulerStats
	for i, cfg := range cfgs {
		env := quickEnv()
		tc, err := timelineConfigFor(env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ring := sim.NewTraceRing(capacity)
		wantRes[i] = tpptimeline.Run(env.Sys, tc, cfg.Device, ring)
		if ring.Len() == ring.Cap() {
			t.Fatalf("run %d fills its ring; the test needs whole runs", i)
		}
		wantTrace[i] = ring.Snapshot()
		wantEvents.Enqueued += wantRes[i].Events.Enqueued
		wantEvents.Dispatched += wantRes[i].Events.Dispatched
		wantEvents.Completed += wantRes[i].Events.Completed
	}

	before := SimEvents()
	gotRes := make([]tpptimeline.Result, len(cfgs))
	rings := make([]*sim.TraceRing, len(cfgs))
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range cfgs {
		var taps []sim.Tap
		if i%2 == 0 {
			rings[i] = sim.NewTraceRing(capacity)
			taps = append(taps, rings[i])
		}
		wg.Add(1)
		go func(i int, taps []sim.Tap) {
			defer wg.Done()
			env := quickEnv()
			<-start
			res, err := RunTimeline(env, cfgs[i], taps...)
			if err != nil {
				t.Error(err)
			}
			gotRes[i] = res
		}(i, taps)
	}
	close(start)
	wg.Wait()

	for i := range cfgs {
		if !reflect.DeepEqual(gotRes[i], wantRes[i]) {
			t.Errorf("run %d (traced %t) differs from the same run made alone", i, rings[i] != nil)
		}
		if rings[i] != nil && !reflect.DeepEqual(rings[i].Snapshot(), wantTrace[i]) {
			t.Errorf("run %d's ring holds %d events, not the %d of the same run made alone",
				i, rings[i].Len(), len(wantTrace[i]))
		}
	}
	after := SimEvents()
	got := sim.SchedulerStats{
		Enqueued:   after.Enqueued - before.Enqueued,
		Dispatched: after.Dispatched - before.Dispatched,
		Completed:  after.Completed - before.Completed,
	}
	if got != wantEvents {
		t.Fatalf("SimEvents rose by %+v, want the runs' %+v", got, wantEvents)
	}
}
