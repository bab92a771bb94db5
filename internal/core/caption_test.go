package core

import (
	"math"
	"testing"
	"testing/quick"

	"cxlmem/internal/sim"
	"cxlmem/internal/stats"
	"cxlmem/internal/telemetry"
)

func TestFitEstimatorRecoversLinearRelation(t *testing.T) {
	// Synthetic sweep: throughput = 5 - 0.02*L1lat - 0.01*DDRlat + 2*IPC.
	r := sim.NewRng(3)
	var samples []telemetry.Sample
	var y []float64
	for i := 0; i < 60; i++ {
		s := telemetry.Sample{
			L1MissLatencyNS:  30 + r.Float64()*70,
			DDRReadLatencyNS: 80 + r.Float64()*120,
			IPC:              0.3 + r.Float64(),
		}
		samples = append(samples, s)
		y = append(y, 5-0.02*s.L1MissLatencyNS-0.01*s.DDRReadLatencyNS+2*s.IPC)
	}
	est, err := FitEstimator(samples, y)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range samples {
		if math.Abs(est.Estimate(s)-y[i]) > 1e-6 {
			t.Fatalf("estimate %d = %v, want %v", i, est.Estimate(s), y[i])
		}
	}
}

func TestFitEstimatorValidation(t *testing.T) {
	if _, err := FitEstimator(make([]telemetry.Sample, 3), []float64{1}); err == nil {
		t.Error("length mismatch should error")
	}
	// Constant features -> singular system.
	samples := make([]telemetry.Sample, 10)
	y := make([]float64, 10)
	if _, err := FitEstimator(samples, y); err == nil {
		t.Error("degenerate sweep should error")
	}
}

func TestDefaultTunerConfigValid(t *testing.T) {
	if err := DefaultTunerConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTunerConfigValidation(t *testing.T) {
	mod := func(f func(*TunerConfig)) TunerConfig {
		c := DefaultTunerConfig()
		f(&c)
		return c
	}
	bad := []TunerConfig{
		mod(func(c *TunerConfig) { c.MinRatio = 100; c.MaxRatio = 0 }),
		mod(func(c *TunerConfig) { c.InitialRatio = 150 }),
		mod(func(c *TunerConfig) { c.MinStepMagnitude = 0 }),
		mod(func(c *TunerConfig) { c.InitialStep = 0 }),
		mod(func(c *TunerConfig) { c.Deadband = -1 }),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
}

func TestTunerContinuesWhileImproving(t *testing.T) {
	cfg := DefaultTunerConfig()
	cfg.InitialRatio = 50
	cfg.InitialStep = -9
	tn := NewTuner(cfg)
	r1 := tn.Advance(1.0) // first call applies the initial step
	if r1 != 41 {
		t.Fatalf("first ratio = %v, want 41", r1)
	}
	r2 := tn.Advance(1.1) // improved: keep going down
	if r2 != 32 {
		t.Fatalf("second ratio = %v, want 32", r2)
	}
	r3 := tn.Advance(1.2)
	if r3 != 23 {
		t.Fatalf("third ratio = %v, want 23", r3)
	}
}

func TestTunerReversesAndHalvesOnRegression(t *testing.T) {
	cfg := DefaultTunerConfig()
	cfg.InitialRatio = 50
	cfg.InitialStep = -20
	cfg.MinStepMagnitude = 5
	tn := NewTuner(cfg)
	tn.Advance(1.0)      // ratio 30
	r := tn.Advance(0.8) // regression: reverse -20 -> +10, ratio 40
	if r != 40 {
		t.Fatalf("reversed ratio = %v, want 40", r)
	}
	r = tn.Advance(0.7) // regress again: +10 -> -5, ratio 35
	if r != 35 {
		t.Fatalf("second reversal ratio = %v, want 35", r)
	}
}

func TestTunerMinimumStepMagnitude(t *testing.T) {
	cfg := DefaultTunerConfig()
	cfg.InitialRatio = 50
	cfg.InitialStep = -9
	cfg.MinStepMagnitude = 9
	tn := NewTuner(cfg)
	tn.Advance(1.0)
	// Regression would halve 9 -> 4.5; the floor keeps it at 9 (reversed).
	r := tn.Advance(0.5)
	if r != 50 {
		t.Fatalf("ratio after floored reversal = %v, want 50", r)
	}
}

func TestTunerRatioBounds(t *testing.T) {
	cfg := DefaultTunerConfig()
	cfg.InitialRatio = 5
	cfg.InitialStep = -9
	tn := NewTuner(cfg)
	r := tn.Advance(1.0)
	if r != 0 {
		t.Fatalf("ratio clamped = %v, want 0", r)
	}
	// Keep "improving": the tuner must not sit at the bound forever.
	r = tn.Advance(1.1)
	if r <= 0 {
		t.Fatalf("tuner parked at lower bound: %v", r)
	}
}

func TestTunerDeadband(t *testing.T) {
	cfg := DefaultTunerConfig()
	cfg.InitialRatio = 50
	cfg.InitialStep = -9
	cfg.Deadband = 0.01
	tn := NewTuner(cfg)
	tn.Advance(1.0)
	// A -0.5% change is inside the deadband: direction is kept.
	r := tn.Advance(0.995)
	if r != 32 {
		t.Fatalf("deadband ignored tiny regression? ratio = %v, want 32", r)
	}
}

func TestTunerLargeDropReversesAtFullMagnitude(t *testing.T) {
	cfg := DefaultTunerConfig()
	cfg.InitialRatio = 50
	cfg.InitialStep = -18
	cfg.MinStepMagnitude = 9
	cfg.LargeDropFraction = 0.5
	tn := NewTuner(cfg)
	tn.Advance(1.0)      // ratio 32
	r := tn.Advance(0.3) // 70% collapse: reverse at full 18, not halved 9
	if r != 50 {
		t.Fatalf("large-drop ratio = %v, want 50", r)
	}
}

// TestTunerConvergesOnUnimodalObjective drives the tuner against a synthetic
// unimodal throughput curve peaking at 35 % CXL: the steady-state ratios
// must oscillate near the peak.
func TestTunerConvergesOnUnimodalObjective(t *testing.T) {
	objective := func(ratio float64) float64 {
		d := ratio - 35
		return 100 - d*d/50
	}
	tn := NewTuner(DefaultTunerConfig())
	ratio := tn.Ratio()
	var tail []float64
	for i := 0; i < 60; i++ {
		state := objective(ratio)
		ratio = tn.Advance(state)
		if i >= 40 {
			tail = append(tail, ratio)
		}
	}
	mean := stats.Mean(tail)
	if mean < 20 || mean > 50 {
		t.Errorf("steady-state mean ratio = %v, want near 35", mean)
	}
	for _, r := range tail {
		if r < 35-2*9-1 || r > 35+2*9+1 {
			t.Errorf("tail ratio %v strayed beyond two steps from the optimum", r)
		}
	}
}

// TestTunerConvergenceProperty: for any unimodal objective with peak in
// [10, 90], the tuner's final 20 ratios stay within two minimum steps of the
// peak.
func TestTunerConvergenceProperty(t *testing.T) {
	f := func(peakRaw uint8, width uint8) bool {
		peak := 10 + float64(peakRaw%81)
		w := 20 + float64(width%80)
		objective := func(r float64) float64 {
			d := (r - peak) / w
			return 100 * (1 - d*d)
		}
		tn := NewTuner(DefaultTunerConfig())
		ratio := tn.Ratio()
		for i := 0; i < 80; i++ {
			ratio = tn.Advance(objective(ratio))
		}
		// After settling, ratios may oscillate around the peak by up to two
		// minimum steps (the tuner keeps probing by design).
		for i := 0; i < 20; i++ {
			ratio = tn.Advance(objective(ratio))
			if math.Abs(ratio-peak) > 2*9+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestControllerStepAppliesRatio(t *testing.T) {
	// Estimator: performance = IPC (identity on one counter), so rising IPC
	// means improvement.
	model := &stats.LinearModel{Intercept: 0, Coefficients: []float64{0, 0, 1}}
	est := &Estimator{model: model}
	var applied []float64
	ctl := NewController(est, DefaultTunerConfig(), func(p float64) error {
		applied = append(applied, p)
		return nil
	})
	ipc := 1.0
	for i := 0; i < 10; i++ {
		if _, _, err := ctl.Step(telemetry.Sample{IPC: ipc}); err != nil {
			t.Fatal(err)
		}
		ipc += 0.1
	}
	if len(applied) != 10 {
		t.Fatalf("setter called %d times, want 10", len(applied))
	}
	if ctl.Ratio() != applied[len(applied)-1] {
		t.Error("Ratio() disagrees with last applied value")
	}
}

func TestControllerSynchrony(t *testing.T) {
	model := &stats.LinearModel{Intercept: 0, Coefficients: []float64{0, 0, 1}}
	ctl := NewController(&Estimator{model: model}, DefaultTunerConfig(), func(float64) error { return nil })
	var states, throughput []float64
	for i := 0; i < 20; i++ {
		v := 1 + float64(i)*0.05
		state, _, err := ctl.Step(telemetry.Sample{IPC: v})
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, state)
		throughput = append(throughput, v)
	}
	// Model output is (a smoothed version of) the throughput: strongly
	// positive correlation.
	if p := stats.Pearson(states, throughput); p < 0.9 {
		t.Errorf("synchrony = %v, want > 0.9", p)
	}
}

func TestControllerPanics(t *testing.T) {
	model := &stats.LinearModel{Intercept: 0, Coefficients: []float64{0, 0, 1}}
	for name, fn := range map[string]func(){
		"nil estimator": func() { NewController(nil, DefaultTunerConfig(), func(float64) error { return nil }) },
		"nil setter":    func() { NewController(&Estimator{model: model}, DefaultTunerConfig(), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
