package experiments

import (
	"testing"

	"cxlmem/internal/sim"
	"cxlmem/internal/workloads"
	"cxlmem/internal/workloads/workloadstest"
)

// TestScenarioFuzzMemoKeys guards memo-key stability across the fuzzer's
// valid-spec space: a scenario and its canonical re-parse must map to the
// same cell-cache key (or identical cells silently fork and the cache
// degrades), and option knobs that cannot change cell bytes (Parallel, Ctx)
// must not fork the key either.
func TestScenarioFuzzMemoKeys(t *testing.T) {
	rng := sim.NewRng(4242)
	o := DefaultOptions()
	o.Quick = true
	for i := 0; i < 200; i++ {
		sc := workloadstest.RandomScenario(rng)
		canon := sc.String()
		re, err := workloads.ParseScenario(canon)
		if err != nil {
			t.Fatalf("canonical spec %q does not re-parse: %v", canon, err)
		}
		if got, want := ScenarioKey(o, re), ScenarioKey(o, sc); got != want {
			t.Fatalf("re-parsed scenario forks the memo key: %q vs %q", got, want)
		}
		op := o
		op.Parallel = 8
		if ScenarioKey(op, sc) != ScenarioKey(o, sc) {
			t.Fatalf("Parallel forks the memo key for %q", canon)
		}
		oq := o
		oq.Quick = false
		if ScenarioKey(oq, sc) == ScenarioKey(o, sc) {
			t.Fatalf("Quick does not fork the memo key for %q (it changes the bytes)", canon)
		}
	}
}
