package workloads_test

import (
	"reflect"
	"strings"
	"testing"

	"cxlmem/internal/sim"
	"cxlmem/internal/workloads"
	"cxlmem/internal/workloads/workloadstest"
)

// roundTrip asserts the canonical-form contract on one parsed scenario:
// String must re-parse to an identical Scenario with an identical canonical
// string (String is the memo key — a fixpoint or cells silently fork).
func roundTrip(t *testing.T, sc workloads.Scenario) {
	t.Helper()
	canon := sc.String()
	re, err := workloads.ParseScenario(canon)
	if err != nil {
		t.Fatalf("canonical form %q does not re-parse: %v", canon, err)
	}
	if re.String() != canon {
		t.Fatalf("canonical form is not a fixpoint: %q -> %q", canon, re.String())
	}
	if !reflect.DeepEqual(re, sc) {
		t.Fatalf("round trip of %q changed the scenario: %+v vs %+v", canon, re, sc)
	}
}

// TestScenarioFuzzCorpus is the CI-bounded fuzzer corpus: ~200 random valid
// specs across the workload x platform matrix. Every spec must parse,
// canonicalize to a fixpoint, and a strided subset must run end to end in a
// quick environment without a panic or an error.
func TestScenarioFuzzCorpus(t *testing.T) {
	rng := sim.NewRng(2026)
	env := workloads.NewEnv()
	env.Quick = true
	for i := 0; i < 200; i++ {
		spec := workloadstest.RandomScenarioSpec(rng)
		sc, err := workloads.ParseScenario(spec)
		if err != nil {
			t.Fatalf("generated spec %q does not parse: %v", spec, err)
		}
		roundTrip(t, sc)
		// Running every cell would dominate CI; a fixed stride keeps the
		// executed subset deterministic and cheap while still crossing
		// workloads, platforms and knob mixes.
		if i%20 != 0 {
			continue
		}
		if _, err := sc.Run(env); err != nil {
			t.Errorf("generated scenario %q does not run: %v", sc, err)
		}
	}
}

// TestRandomScenarioCoverage: over a seeded corpus the generator must visit
// every registered workload and every knob key at least once — otherwise the
// fuzzer silently stops guarding part of the matrix.
func TestRandomScenarioCoverage(t *testing.T) {
	rng := sim.NewRng(7)
	workloadsSeen := map[string]bool{}
	var variant, policy, size, qps, threads, ops, seed, device, platform bool
	for i := 0; i < 2000; i++ {
		sc := workloadstest.RandomScenario(rng)
		workloadsSeen[sc.Workload] = true
		variant = variant || sc.Variant != ""
		policy = policy || sc.Policy.Set
		size = size || sc.SizeBytes > 0
		qps = qps || sc.TargetQPS > 0
		threads = threads || sc.Threads > 0
		ops = ops || sc.Ops > 0
		seed = seed || sc.Seed != 0
		device = device || sc.Device != ""
		platform = platform || sc.Platform != ""
	}
	for _, name := range workloads.Names() {
		if !workloadsSeen[name] {
			t.Errorf("generator never drew workload %s", name)
		}
	}
	for name, hit := range map[string]bool{
		"variant": variant, "policy": policy, "size": size, "qps": qps,
		"threads": threads, "ops": ops, "seed": seed, "device": device, "platform": platform,
	} {
		if !hit {
			t.Errorf("generator never set %s", name)
		}
	}
}

// FuzzParseScenario is the native fuzz target: any input that parses must
// canonicalize to a re-parseable fixpoint, and no input may panic. CI runs a
// bounded -fuzztime pass; local `go test -fuzz FuzzParseScenario` digs
// deeper.
func FuzzParseScenario(f *testing.F) {
	rng := sim.NewRng(99)
	for i := 0; i < 32; i++ {
		f.Add(workloadstest.RandomScenarioSpec(rng))
	}
	f.Add("kvstore/policy=weighted:85,15/size=4G")
	f.Add("tpp-timeline:steady/qps=80000/ops=120")
	f.Add("fluid/platform=x16-quad")
	f.Add("ycsb:rmw/policy=cxl:63/seed=7")
	f.Add("dlrm/policy=weighted:0,4")
	f.Add("fio:64k/device=CXL-B")
	f.Add("")
	f.Add("///")
	f.Add("kvstore/policy=")
	f.Add("kvstore/qps=NaN")
	f.Add("kvstore/size=-1G")
	f.Add("kvstore/size=8T")
	f.Add("kvstore/size=16777217T")
	f.Add("kvstore/size=8388608T")
	f.Add("kvstore/ops=2000000000")
	f.Add("tpp-timeline/qps=1e9")
	f.Fuzz(func(t *testing.T, spec string) {
		sc, err := workloads.ParseScenario(spec)
		if err != nil {
			return // invalid inputs must only error, never panic
		}
		if sc.SizeBytes < 0 || sc.SizeBytes > workloads.MaxSizeBytes || sc.Ops < 0 || sc.Ops > workloads.MaxOps ||
			sc.TargetQPS < 0 || sc.TargetQPS > workloads.MaxQPS {
			t.Fatalf("%q parsed past the limits: size=%d ops=%d qps=%g", spec, sc.SizeBytes, sc.Ops, sc.TargetQPS)
		}
		canon := sc.String()
		re, err := workloads.ParseScenario(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", canon, spec, err)
		}
		if re.String() != canon {
			t.Fatalf("canonical form is not a fixpoint: %q -> %q -> %q", spec, canon, re.String())
		}
	})
}

// TestFuzzSeedsRejectedCleanly pins the error path of the hand-written
// invalid seeds: they must produce errors mentioning the failing part. The
// size=, ops= and qps= seeds lie past the limits or overflow int64; accepted,
// they would make a replica allocate gigabytes, run for minutes or alias
// another cell's memo key.
func TestFuzzSeedsRejectedCleanly(t *testing.T) {
	for _, bad := range []string{
		"", "///", "kvstore/policy=", "kvstore/qps=NaN", "kvstore/size=-1G", "nosuch/policy=ddr",
		"kvstore/size=8T", "kvstore/size=16777217T", "kvstore/size=8388608T", "kvstore/ops=2000000000",
		"tpp-timeline/qps=1e9",
	} {
		if _, err := workloads.ParseScenario(bad); err == nil {
			t.Errorf("spec %q should not parse", bad)
		} else if !strings.Contains(err.Error(), "workloads:") {
			t.Errorf("spec %q: error %v lacks package context", bad, err)
		}
	}
}
