package workloads

import (
	"reflect"
	"sync"
	"testing"

	"cxlmem/internal/sim"
	"cxlmem/internal/telemetry"
	"cxlmem/internal/workloads/tpptimeline"
)

// TestConcurrentRunsPublishContiguousTails: two timeline runs with distinct
// seeds, started together, must each land in the process-wide sink as one
// contiguous tail — exactly the events a private ring attached to the same
// run records — never interleaved, with totals summing both runs.
func TestConcurrentRunsPublishContiguousTails(t *testing.T) {
	const capacity = 1 << 16
	prev := telemetry.Sim.Cap()
	telemetry.Sim.Configure(capacity)
	defer telemetry.Sim.Configure(prev)

	// 8 epochs (40 ms) keep each run's tail well under half the sink.
	cfgs := []Config{timelineWorkload{}.DefaultConfig(), timelineWorkload{}.DefaultConfig()}
	cfgs[0].Ops, cfgs[0].Seed = 8, 11
	cfgs[1].Ops, cfgs[1].Seed = 8, 12

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range cfgs {
		wg.Add(1)
		go func(cfg Config) {
			defer wg.Done()
			env := NewEnv()
			env.Quick = true
			<-start
			if _, err := RunTimeline(env, cfg); err != nil {
				t.Error(err)
			}
		}(cfgs[i])
	}
	close(start)
	wg.Wait()

	var tails [2][]sim.TraceEvent
	var want sim.TraceCounts
	for i, cfg := range cfgs {
		env := NewEnv()
		env.Quick = true
		tc, err := timelineConfigFor(env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ring := sim.NewTraceRing(capacity)
		tpptimeline.Run(env.Sys, tc, cfg.Device, ring)
		if ring.Len() == ring.Cap() {
			t.Fatalf("run %d fills its ring; the test needs whole runs", i)
		}
		tails[i] = ring.Snapshot()
		got := ring.Totals()
		want.Enqueued += got.Enqueued
		want.Dispatched += got.Dispatched
		want.Completed += got.Completed
	}
	got := telemetry.Sim.Snapshot()
	ab := append(append([]sim.TraceEvent{}, tails[0]...), tails[1]...)
	ba := append(append([]sim.TraceEvent{}, tails[1]...), tails[0]...)
	if !reflect.DeepEqual(got, ab) && !reflect.DeepEqual(got, ba) {
		t.Fatalf("sink holds %d events, not the two runs' tails (%d + %d) back to back",
			len(got), len(tails[0]), len(tails[1]))
	}
	if totals := telemetry.Sim.Totals(); totals != want {
		t.Fatalf("sink totals %+v, want the two runs' %+v", totals, want)
	}
}
