package workloads

import (
	"reflect"
	"testing"
)

func TestParseScenarioValid(t *testing.T) {
	cases := []struct {
		in   string
		want Scenario
	}{
		{"ycsb", Scenario{Workload: "ycsb"}},
		{"ycsb:readmostly", Scenario{Workload: "ycsb", Variant: "readmostly"}},
		{
			"ycsb:readmostly/policy=weighted:85,15/size=4G",
			Scenario{
				Workload: "ycsb", Variant: "readmostly",
				Policy:    Policy{Spec: "weighted:85,15", CXLPercent: 15, Set: true},
				SizeBytes: 4 << 30,
			},
		},
		{
			"dlrm/policy=cxl:63/threads=32",
			Scenario{
				Workload: "dlrm",
				Policy:   Policy{Spec: "cxl:63", CXLPercent: 63, Set: true},
				Threads:  32,
			},
		},
		{
			"fio:64k/policy=cxl/qps=5000/ops=1234/seed=9/device=CXL-B",
			Scenario{
				Workload: "fio", Variant: "64k",
				Policy:    Policy{Spec: "cxl", CXLPercent: 100, Set: true},
				TargetQPS: 5000, Ops: 1234, Seed: 9, Device: "CXL-B",
			},
		},
		{"KVSTORE:UNIFORM/policy=DDR", // case-insensitive head and policy
			Scenario{Workload: "kvstore", Variant: "uniform", Policy: Policy{Spec: "ddr", Set: true}}},
		{"fluid/platform=x16-quad", Scenario{Workload: "fluid", Platform: "x16-quad"}},
		{"dlrm/platform=TABLE1", // platform names normalize to lowercase
			Scenario{Workload: "dlrm", Platform: "table1"}},
		{"tpp-timeline/qps=200000", // the qps limit itself
			Scenario{Workload: "tpp-timeline", TargetQPS: 200000}},
	}
	for _, c := range cases {
		got, err := ParseScenario(c.in)
		if err != nil {
			t.Errorf("ParseScenario(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseScenario(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseScenarioInvalid(t *testing.T) {
	cases := []string{
		"",                           // empty
		"  ",                         // blank
		"nosuchworkload",             // unregistered
		"ycsb/policy",                // not key=value
		"ycsb/policy=",               // empty value
		"ycsb/policy=weighted:85",    // one weight
		"ycsb/policy=weighted:0,0",   // zero weights
		"ycsb/policy=weighted:-1,2",  // negative weight
		"ycsb/policy=cxl:150",        // percent out of range
		"ycsb/policy=nearfar",        // unknown policy
		"ycsb/size=4X",               // bad suffix
		"ycsb/size=-4G",              // negative size
		"ycsb/qps=0",                 // non-positive qps
		"ycsb/qps=nan",               // NaN defeats range checks + memo key
		"ycsb/qps=+inf",              // infinite load
		"tpp-timeline/qps=200001",    // qps above the limit
		"fluid/policy=cxl:nan",       // NaN percent
		"ycsb/policy=weighted:inf,1", // infinite weight
		"ycsb/threads=-3",            // negative threads
		"ycsb/ops=0",                 // non-positive ops
		"ycsb/seed=abc",              // non-numeric seed
		"ycsb/flavor=mild",           // unknown key
		"/policy=ddr",                // no workload
		"ycsb/platform=atari2600",    // unregistered platform
	}
	for _, in := range cases {
		if _, err := ParseScenario(in); err == nil {
			t.Errorf("ParseScenario(%q) accepted, want error", in)
		}
	}
}

// TestScenarioStringRoundTrip pins the canonical-form contract both ways:
// parse→String is canonical and String→parse is the identity.
func TestScenarioStringRoundTrip(t *testing.T) {
	cases := []struct{ in, canonical string }{
		{"ycsb", "ycsb"},
		{"ycsb:readmostly/policy=weighted:85,15/size=4G", "ycsb:readmostly/policy=weighted:85,15/size=4G"},
		{"dlrm/threads=32/policy=cxl:63", "dlrm/policy=cxl:63/threads=32"}, // keys reorder canonically
		{"fio:4k/size=4096", "fio:4k/size=4K"},                             // size canonicalizes to suffix form
		{"kvstore/qps=45000/ops=1000/seed=3/device=CXL-C", "kvstore/qps=45000/ops=1000/seed=3/device=CXL-C"},
		{"spec:mix/policy=interleave", "spec:mix/policy=interleave"},
		{"kvstore/platform=snc-off/policy=cxl", "kvstore/policy=cxl/platform=snc-off"}, // platform renders last
	}
	for _, c := range cases {
		sc, err := ParseScenario(c.in)
		if err != nil {
			t.Fatalf("ParseScenario(%q): %v", c.in, err)
		}
		if got := sc.String(); got != c.canonical {
			t.Errorf("String(%q) = %q, want %q", c.in, got, c.canonical)
		}
		back, err := ParseScenario(sc.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", sc.String(), err)
		}
		if !reflect.DeepEqual(back, sc) {
			t.Errorf("round trip of %q: %+v != %+v", c.in, back, sc)
		}
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"4096", 4096}, {"64K", 64 << 10}, {"512m", 512 << 20}, {"4G", 4 << 30}, {"1T", 1 << 40},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
		if back, err := ParseBytes(FormatBytes(c.want)); err != nil || back != c.want {
			t.Errorf("FormatBytes round trip of %d failed: %d, %v", c.want, back, err)
		}
	}
	// The largest size that fits int64 parses; one unit more overflows.
	if got, err := ParseBytes("8388607T"); err != nil || got != 8388607<<40 {
		t.Errorf("ParseBytes(8388607T) = %d, %v", got, err)
	}
	for _, in := range []string{"8388608T", "16777217T", "9223372036854775807K"} {
		if got, err := ParseBytes(in); err == nil {
			t.Errorf("ParseBytes(%q) = %d, want an overflow error", in, got)
		}
	}
}

// TestScenarioApply checks overrides land on the right Config fields and
// zero-valued spec fields leave the defaults alone.
func TestScenarioApply(t *testing.T) {
	def := Config{Variant: "a", Device: "CXL-A", CXLPercent: 50, TargetQPS: 1000, Threads: 8, Ops: 500}
	sc, err := ParseScenario("ycsb:readonly/policy=weighted:85,15/size=1G/seed=7")
	if err != nil {
		t.Fatal(err)
	}
	got := sc.Apply(def)
	if got.Variant != "readonly" || got.CXLPercent != 15 || got.SizeBytes != 1<<30 || got.Seed != 7 {
		t.Errorf("overrides not applied: %+v", got)
	}
	if got.TargetQPS != 1000 || got.Threads != 8 || got.Ops != 500 || got.Device != "CXL-A" {
		t.Errorf("defaults clobbered: %+v", got)
	}
}

// TestScenarioRunOnPlatform exercises the platform= path end to end: a cell
// without a device= key runs against the platform's default far device, an
// explicit device from another platform fails cleanly, and an explicit
// device belonging to the platform is honored.
func TestScenarioRunOnPlatform(t *testing.T) {
	env := NewEnv()
	env.Quick = true
	run := func(spec string) (Metrics, error) {
		sc, err := ParseScenario(spec)
		if err != nil {
			t.Fatalf("ParseScenario(%q): %v", spec, err)
		}
		return sc.Run(env)
	}
	m, err := run("kvstore/platform=x16-quad")
	if err != nil {
		t.Fatalf("default-device run on x16-quad: %v", err)
	}
	if len(m.Items) == 0 {
		t.Fatal("no metrics")
	}
	if _, err := run("kvstore/platform=x16-quad/device=CXL-A"); err == nil {
		t.Error("CXL-A does not exist on x16-quad; expected an error")
	}
	if _, err := run("kvstore/platform=x16-quad/device=CXL-X3"); err != nil {
		t.Errorf("explicit x16-quad device: %v", err)
	}
	if env.Platform != "table1" || env.Sys.DefaultFarDevice() != "CXL-A" {
		t.Error("platform runs must not mutate the caller's environment")
	}
}

// TestScaleOps pins the one quick-mode scaling rule adapters and experiment
// drivers share: full mode keeps the count, quick mode divides it by ten
// with a floor of 100.
func TestScaleOps(t *testing.T) {
	if got := ScaleOps(false, 5000); got != 5000 {
		t.Errorf("full scale = %d, want 5000", got)
	}
	if got := ScaleOps(true, 5000); got != 500 {
		t.Errorf("quick scale = %d, want 500", got)
	}
	if got := ScaleOps(true, 200); got != 100 {
		t.Errorf("quick floor = %d, want 100", got)
	}
}

// TestEnvForPlatform pins the copy-vs-identity contract and that run options
// travel to the platform copy.
func TestEnvForPlatform(t *testing.T) {
	env := NewEnv()
	env.Quick = true
	same, err := env.ForPlatform("")
	if err != nil || same != env {
		t.Errorf("empty platform should return the same env, got %v, %v", same, err)
	}
	same, err = env.ForPlatform(env.Platform)
	if err != nil || same != env {
		t.Errorf("identical platform should return the same env, got %v, %v", same, err)
	}
	other, err := env.ForPlatform("fpga-degraded")
	if err != nil {
		t.Fatal(err)
	}
	if other == env || other.Sys == env.Sys {
		t.Error("different platform should build a fresh system")
	}
	if !other.Quick || other.Platform != "fpga-degraded" {
		t.Errorf("run options lost in the copy: %+v", other)
	}
	if other.Sys.DefaultFarDevice() != "CXL-F" {
		t.Errorf("fpga-degraded default far device = %q", other.Sys.DefaultFarDevice())
	}
	if _, err := env.ForPlatform("nope"); err == nil {
		t.Error("unknown platform should error")
	}
}
