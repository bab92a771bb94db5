// Package workloadstest generates random valid scenario specs for the
// scenario fuzzer: specs drawn across the whole workload x platform matrix,
// every one of which must parse, round-trip canonically and run without
// panicking. Only tests import it: the workloads fuzz corpus and the
// experiments package's memo-key fuzz test share the generator.
package workloadstest

import (
	"cxlmem/internal/sim"
	"cxlmem/internal/topo"
	"cxlmem/internal/workloads"
)

// fuzzPolicies are the policy= spellings RandomScenario draws from; the
// weighted and percent forms also exercise the numeric parsers.
var fuzzPolicies = []string{
	"ddr", "cxl", "interleave", "cxl:0", "cxl:25", "cxl:63", "cxl:100",
	"weighted:85,15", "weighted:25,75", "weighted:1,1", "weighted:0,4",
}

// fuzzSizes are size= literals covering every suffix and a raw byte count.
var fuzzSizes = []string{"4096", "64K", "512K", "16M", "64M", "256M", "1G", "4G"}

// RandomScenario draws one valid scenario spec: a registered workload, an
// optionally overridden variant, and a random subset of the knob keys, each
// with a value every workload accepts. The result always parses, because the
// fuzzer's contract is to explore the valid-spec space (invalid specs get
// their own deterministic rejection tests); rng drives every choice, so a
// seeded corpus is reproducible.
func RandomScenario(rng *sim.Rng) workloads.Scenario {
	names := workloads.Names()
	w, err := workloads.Get(names[rng.Intn(len(names))])
	if err != nil {
		panic(err) // unreachable: the name came from the registry
	}
	sc := workloads.Scenario{Workload: w.Name}
	if rng.Intn(2) == 0 {
		variants := w.Variants
		sc.Variant = variants[rng.Intn(len(variants))]
	}
	if rng.Intn(2) == 0 {
		p, err := workloads.ParsePolicy(fuzzPolicies[rng.Intn(len(fuzzPolicies))])
		if err != nil {
			panic(err) // unreachable: the literals are valid
		}
		sc.Policy = p
	}
	if rng.Intn(3) == 0 {
		n, err := workloads.ParseBytes(fuzzSizes[rng.Intn(len(fuzzSizes))])
		if err != nil {
			panic(err) // unreachable: the literals are valid
		}
		sc.SizeBytes = n
	}
	if rng.Intn(3) == 0 {
		sc.TargetQPS = float64(1+rng.Intn(400)) * 250
	}
	if rng.Intn(3) == 0 {
		sc.Threads = 1 + rng.Intn(64)
	}
	if rng.Intn(3) == 0 {
		sc.Ops = 100 + rng.Intn(40_000)
	}
	if rng.Intn(3) == 0 {
		sc.Seed = 1 + rng.Uint64()%1_000_000
	}
	if rng.Intn(2) == 0 {
		// Cross the platform axis; the cell then runs against the platform's
		// default far device, which is valid on every profile. A device= key
		// is only drawn on the default platform, where the Table-1 names
		// resolve.
		platforms := topo.PlatformNames()
		sc.Platform = platforms[rng.Intn(len(platforms))]
	} else if rng.Intn(3) == 0 {
		devices := []string{"CXL-A", "CXL-B", "CXL-C", "DDR5-R"}
		sc.Device = devices[rng.Intn(len(devices))]
	}
	return sc
}

// RandomScenarioSpec renders a RandomScenario with cosmetic (case and
// whitespace) noise that must not survive canonicalization — exercising the
// parser's normalization on top of the generator's structural choices.
func RandomScenarioSpec(rng *sim.Rng) string {
	sc := RandomScenario(rng)
	spec := sc.String()
	switch rng.Intn(3) {
	case 0:
		return spec
	case 1:
		return " " + spec
	default:
		// Uppercase the head; ParseScenario lowercases it. Knob values keep
		// their case (device names are case-sensitive).
		head := sc.Workload
		if sc.Variant != "" {
			head += ":" + sc.Variant
		}
		rest := spec[len(head):]
		upper := make([]byte, len(head))
		for i := 0; i < len(head); i++ {
			c := head[i]
			if 'a' <= c && c <= 'z' && rng.Intn(2) == 0 {
				c -= 'a' - 'A'
			}
			upper[i] = c
		}
		return string(upper) + rest
	}
}
