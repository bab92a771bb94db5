package tpptimeline

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"cxlmem/internal/sim"
	"cxlmem/internal/topo"
)

// quickCfg returns the cheap test configuration.
func quickCfg() Config { return DefaultConfig().Quick() }

// TestRunShape: the timeline has exactly Epochs samples on the configured
// grid, totals agree with the per-epoch sums, and the cold start promotes
// pages off the far tier.
func TestRunShape(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	cfg := quickCfg()
	res := Run(sys, cfg, sys.DefaultFarDevice())
	if len(res.Epochs) != cfg.Epochs {
		t.Fatalf("timeline has %d epochs, want %d", len(res.Epochs), cfg.Epochs)
	}
	var accesses int64
	for i, es := range res.Epochs {
		if es.Index != i || es.Start != sim.Time(i)*cfg.Epoch {
			t.Fatalf("epoch %d has index %d start %v", i, es.Index, es.Start)
		}
		if es.LocalPages+es.FarPages != int64(cfg.Pages) {
			t.Fatalf("epoch %d residency %d+%d != %d pages", i, es.LocalPages, es.FarPages, cfg.Pages)
		}
		accesses += es.Accesses
	}
	if accesses != res.Accesses || accesses == 0 {
		t.Fatalf("epoch accesses sum %d, run total %d", accesses, res.Accesses)
	}
	if res.Promotions == 0 {
		t.Fatal("cold start produced no promotions")
	}
	first, last := res.Epochs[0], res.Epochs[len(res.Epochs)-1]
	if last.FarPages >= first.FarPages {
		t.Fatalf("far residency did not fall: %d -> %d", first.FarPages, last.FarPages)
	}
	if res.Events.Dispatched == 0 || res.Events.Dispatched != res.Events.Completed {
		t.Fatalf("unbalanced event counters: %+v", res.Events)
	}
}

// TestRunDeterministic: same config + seed ⇒ deeply identical Result,
// including the full trace when a ring is attached.
func TestRunDeterministic(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	cfg := quickCfg()
	ringA := sim.NewTraceRing(512)
	ringB := sim.NewTraceRing(512)
	a := Run(sys, cfg, sys.DefaultFarDevice(), ringA)
	b := Run(sys, cfg, sys.DefaultFarDevice(), ringB)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical runs produced different results")
	}
	if !reflect.DeepEqual(ringA.Snapshot(), ringB.Snapshot()) {
		t.Fatal("two identical runs produced different traces")
	}
	cfg.Seed++
	c := Run(sys, cfg, sys.DefaultFarDevice())
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical results")
	}
}

// TestFarResidencyMonotoneInTarget is the tpp-timeline monotonicity
// property: granting the local tier a larger share (more local capacity,
// less far) must never *increase* steady-state far-page residency.
func TestFarResidencyMonotoneInTarget(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	prev := 2.0
	for _, target := range []float64{0.25, 0.5, 0.75, 0.9} {
		cfg := quickCfg()
		cfg.Policy.TargetDDRFraction = target
		res := Run(sys, cfg, sys.DefaultFarDevice())
		if res.FinalFarFraction > prev {
			t.Fatalf("target %.2f: far residency %.3f exceeds %.3f at smaller local share",
				target, res.FinalFarFraction, prev)
		}
		prev = res.FinalFarFraction
	}
}

// TestInvalidConfigPanics: Run refuses invalid configurations loudly.
func TestInvalidConfigPanics(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	cfg := quickCfg()
	cfg.Pages = 0
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	Run(sys, cfg, sys.DefaultFarDevice())
}

// TestRunContextMatchesRun: under a context that never ends, RunContext is
// Run, tap records included; an invalid config is an error, not a panic.
func TestRunContextMatchesRun(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	cfg := quickCfg()
	ring, ctxRing := sim.NewTraceRing(1<<20), sim.NewTraceRing(1<<20)
	want := Run(sys, cfg, "CXL-A", ring)
	got, err := RunContext(context.Background(), sys, cfg, "CXL-A", ctxRing)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("RunContext's result differs from Run's")
	}
	if !reflect.DeepEqual(ctxRing.Snapshot(), ring.Snapshot()) {
		t.Fatal("RunContext's trace differs from Run's")
	}
	cfg.Pages = 0
	if _, err := RunContext(context.Background(), sys, cfg, "CXL-A"); err == nil {
		t.Fatal("RunContext accepted an invalid config")
	}
}

// TestRunContextStopsAtEpochBoundary cancels the context from a tap at an
// arbitrary event: the run dispatches no event past the end of the epoch
// it was in, and returns the context's error and no result.
func TestRunContextStopsAtEpochBoundary(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	cfg := quickCfg()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAt = 5_000
	var dispatched int
	var canceledAt, last sim.Time
	tap := sim.TapFunc(func(te sim.TraceEvent) {
		if te.Phase != sim.PhaseDispatch {
			return
		}
		if dispatched++; dispatched == cancelAt {
			cancel()
			canceledAt = te.At
		}
		last = te.At
	})
	res, err := RunContext(ctx, sys, cfg, "CXL-A", tap)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext returned %v, want context.Canceled", err)
	}
	if len(res.Epochs) != 0 {
		t.Fatalf("a canceled run returned %d epochs", len(res.Epochs))
	}
	boundary := (canceledAt/cfg.Epoch + 1) * cfg.Epoch
	if canceledAt == 0 || last > boundary || boundary >= sim.Time(cfg.Epochs)*cfg.Epoch {
		t.Fatalf("canceled at %v, last event at %v: want the run to stop by the epoch boundary %v, before the horizon", canceledAt, last, boundary)
	}
	// A context that ended before the run starts stops it at once.
	dispatched = 0
	if _, err := RunContext(ctx, sys, cfg, "CXL-A", tap); !errors.Is(err, context.Canceled) || dispatched != 0 {
		t.Fatalf("a run under a done context dispatched %d events and returned %v", dispatched, err)
	}
}
