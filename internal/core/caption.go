// Package core implements Caption, the paper's primary contribution (§6): a
// CXL-memory-aware dynamic page allocation policy that tunes the percentage
// of newly allocated pages placed on the CXL node to maximize the throughput
// of memory-bandwidth-intensive applications.
//
// Caption is three modules wired in a loop (Fig. 10):
//
//	(M1) Monitor   — samples PMU counters (Table 4) once per interval and
//	                 smooths each with a 5-sample moving average;
//	(M2) Estimator — a multiple linear regression Y = β0 + β1·X1 + …
//	                 (Eq. 1) mapping smoothed counters to an estimate of
//	                 memory-subsystem performance;
//	(M3) Tuner     — the greedy controller of Algorithm 1: keep stepping the
//	                 CXL ratio in the same direction while estimated
//	                 performance improves, reverse with half the step when it
//	                 regresses, never let the step collapse below a minimum
//	                 magnitude, and clamp the ratio to its bounds.
//
// The resulting ratio is applied through the weighted-interleave mempolicy
// (internal/numa), affecting only future allocations — exactly the semantics
// of the kernel patch the paper builds on.
package core

import (
	"fmt"
	"math"

	"cxlmem/internal/stats"
	"cxlmem/internal/telemetry"
)

// Estimator is Caption's M2: the linear model of Eq. 1 over the Table-4
// counters.
type Estimator struct {
	model *stats.LinearModel
}

// FitEstimator trains the estimator from a calibration sweep: one smoothed
// counter sample and one measured throughput per operating point. The paper
// derives the weights by running DLRM at various DDR:CXL ratios (§6.1 M2).
func FitEstimator(samples []telemetry.Sample, throughput []float64) (*Estimator, error) {
	if len(samples) != len(throughput) {
		return nil, fmt.Errorf("core: %d samples vs %d throughput points", len(samples), len(throughput))
	}
	rows := make([][]float64, len(samples))
	for i, s := range samples {
		rows[i] = s.Features()
	}
	m, err := stats.FitLinear(rows, throughput)
	if err != nil {
		return nil, fmt.Errorf("core: fitting estimator: %w", err)
	}
	return &Estimator{model: m}, nil
}

// Estimate returns the predicted memory-subsystem performance for the
// smoothed counter sample.
func (e *Estimator) Estimate(s telemetry.Sample) float64 {
	return e.model.Predict(s.Features())
}

// TunerConfig parameterizes Algorithm 1.
type TunerConfig struct {
	// InitialRatio is the starting CXL percentage.
	InitialRatio float64
	// InitialStep is the first step (percentage points; sign sets the
	// initial direction).
	InitialStep float64
	// MinStepMagnitude prevents the reversal halving from collapsing the
	// step toward zero; the paper uses 9 percentage points (§6.1 M3).
	MinStepMagnitude float64
	// MinRatio and MaxRatio bound the ratio (check_ratio_bound in Alg. 1).
	MinRatio, MaxRatio float64
	// Deadband treats relative performance changes smaller than this as
	// noise: the tuner keeps its direction rather than reversing
	// ("mechanisms to efficiently handle very small changes", §6.1).
	Deadband float64
	// LargeDropFraction triggers a full-magnitude reversal when performance
	// collapses by more than this relative fraction ("sudden large
	// changes", §6.1).
	LargeDropFraction float64
}

// DefaultTunerConfig returns the paper's settings: start at the OS default
// 50 % interleave, 9-point minimum step, ratio within [0, 100].
func DefaultTunerConfig() TunerConfig {
	return TunerConfig{
		InitialRatio:      50,
		InitialStep:       -9,
		MinStepMagnitude:  9,
		MinRatio:          0,
		MaxRatio:          100,
		Deadband:          0.005,
		LargeDropFraction: 0.5,
	}
}

// Validate reports configuration errors.
func (c TunerConfig) Validate() error {
	if c.MinRatio >= c.MaxRatio {
		return fmt.Errorf("core: ratio bounds [%v, %v] invalid", c.MinRatio, c.MaxRatio)
	}
	if c.InitialRatio < c.MinRatio || c.InitialRatio > c.MaxRatio {
		return fmt.Errorf("core: initial ratio %v outside bounds", c.InitialRatio)
	}
	if c.MinStepMagnitude <= 0 {
		return fmt.Errorf("core: minimum step must be positive")
	}
	if c.InitialStep == 0 {
		return fmt.Errorf("core: initial step must be non-zero")
	}
	if c.Deadband < 0 || c.LargeDropFraction <= 0 {
		return fmt.Errorf("core: negative deadband or non-positive drop threshold")
	}
	return nil
}

// Tuner is Caption's M3 (Algorithm 1). It is a pure controller: feed it the
// estimated state each interval and it returns the ratio to apply.
type Tuner struct {
	cfg       TunerConfig
	prevState float64
	prevStep  float64
	prevRatio float64
	started   bool
}

// NewTuner creates a tuner.
func NewTuner(cfg TunerConfig) *Tuner {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Tuner{
		cfg:       cfg,
		prevStep:  cfg.InitialStep,
		prevRatio: cfg.InitialRatio,
	}
}

// Ratio returns the currently applied CXL percentage.
func (t *Tuner) Ratio() float64 { return t.prevRatio }

// Advance runs one iteration of Algorithm 1 with the current estimated
// memory-subsystem performance and returns the next ratio.
func (t *Tuner) Advance(currState float64) float64 {
	if !t.started {
		// First observation: apply the initial step without judging a
		// previous period that does not exist.
		t.started = true
		t.prevState = currState
		t.prevRatio = t.clamp(t.prevRatio + t.prevStep)
		return t.prevRatio
	}

	currStep := t.prevStep
	switch {
	case t.isLargeDrop(currState):
		// Sudden collapse: reverse at full magnitude to escape quickly.
		currStep = -sign(t.prevStep) * math.Max(math.Abs(t.cfg.InitialStep), t.cfg.MinStepMagnitude)
	case t.isRegression(currState):
		// Algorithm 1 line 4: reverse and halve.
		currStep = t.prevStep * -0.5
	}
	// Enforce the minimum step magnitude so the search keeps probing
	// (§6.1: "the absolute value of the step variable has the minimum
	// limit (e.g., 9%)").
	if math.Abs(currStep) < t.cfg.MinStepMagnitude {
		currStep = sign(currStep) * t.cfg.MinStepMagnitude
	}

	ratio := t.clamp(t.prevRatio + currStep)
	// Parked at a bound with a step pushing outward: turn around and probe
	// inward immediately instead of sitting at the bound forever.
	if ratio == t.prevRatio && ratio == t.cfg.MinRatio && currStep < 0 {
		currStep = math.Abs(currStep)
		ratio = t.clamp(t.prevRatio + currStep)
	} else if ratio == t.prevRatio && ratio == t.cfg.MaxRatio && currStep > 0 {
		currStep = -math.Abs(currStep)
		ratio = t.clamp(t.prevRatio + currStep)
	}

	t.prevState = currState
	t.prevStep = currStep
	t.prevRatio = ratio
	return ratio
}

func (t *Tuner) isRegression(curr float64) bool {
	if t.prevState == 0 {
		return curr < 0
	}
	rel := (curr - t.prevState) / math.Abs(t.prevState)
	return rel < -t.cfg.Deadband
}

func (t *Tuner) isLargeDrop(curr float64) bool {
	if t.prevState <= 0 {
		return false
	}
	return curr < t.prevState*(1-t.cfg.LargeDropFraction)
}

func (t *Tuner) clamp(r float64) float64 {
	if r < t.cfg.MinRatio {
		return t.cfg.MinRatio
	}
	if r > t.cfg.MaxRatio {
		return t.cfg.MaxRatio
	}
	return r
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

// RatioSetter applies a CXL percentage to the system; numa.Weighted's
// SetCXLPercent satisfies it via a small closure.
type RatioSetter func(percent float64) error

// Controller wires Monitor → Estimator → Tuner → mempolicy (Fig. 10).
type Controller struct {
	sampler   *telemetry.Sampler
	estimator *Estimator
	tuner     *Tuner
	set       RatioSetter
}

// MonitorWindow is Caption's counter smoothing window (§6.1: "a moving
// average of the past 5 samples").
const MonitorWindow = 5

// NewController assembles a Caption instance.
func NewController(est *Estimator, cfg TunerConfig, set RatioSetter) *Controller {
	if est == nil || set == nil {
		panic("core: nil estimator or setter")
	}
	return &Controller{
		sampler:   telemetry.NewSampler(MonitorWindow),
		estimator: est,
		tuner:     NewTuner(cfg),
		set:       set,
	}
}

// Step runs one Caption interval with a fresh raw counter sample: smooth,
// estimate, tune, and apply the new ratio. It returns the estimated state
// and the applied ratio.
func (c *Controller) Step(raw telemetry.Sample) (state, ratio float64, err error) {
	smoothed := c.sampler.Add(raw)
	state = c.estimator.Estimate(smoothed)
	ratio = c.tuner.Advance(state)
	if err := c.set(ratio); err != nil {
		return state, ratio, fmt.Errorf("core: applying ratio %v: %w", ratio, err)
	}
	return state, ratio, nil
}

// Ratio returns the currently applied CXL percentage.
func (c *Controller) Ratio() float64 { return c.tuner.Ratio() }
