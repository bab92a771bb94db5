package workloads

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// allModels are the table's workloads: the seven per-model subpackages plus
// the event-driven tpp-timeline, in sorted order.
var allModels = []string{"dlrm", "dsb", "fio", "fluid", "kvstore", "spec", "tpp-timeline", "ycsb"}

// TestAllModelsRegistered asserts every model has a table entry and the
// registry views agree with each other.
func TestAllModelsRegistered(t *testing.T) {
	names := Names()
	if len(names) != len(allModels) {
		t.Fatalf("registry has %d workloads %v, want the models %v", len(names), names, allModels)
	}
	for i, want := range allModels {
		if names[i] != want {
			t.Errorf("Names()[%d] = %q, want %q", i, names[i], want)
		}
	}
	for _, w := range All() {
		got, err := Get(w.Name)
		if err != nil || got.Name != w.Name {
			t.Errorf("Get(%q) = %v, %v", w.Name, got.Name, err)
		}
		if w.Desc == "" || len(w.Variants) == 0 || w.Run == nil {
			t.Errorf("%s: empty description, variant list or Run", w.Name)
		}
	}
	if _, err := Get("nosuchworkload"); err == nil {
		t.Error("Get of unknown workload should error")
	}
}

// TestRegistryTable holds the table to the rules registration used to check
// at run time: names sorted, unique and non-empty lowercase; each default
// variant listed in Variants; and a Trace function on tpp-timeline alone,
// the one workload on the discrete-event scheduler.
func TestRegistryTable(t *testing.T) {
	var seeded []string
	for i, w := range registry {
		if w.Name == "" || w.Name != strings.ToLower(w.Name) {
			t.Errorf("entry %d: name %q is not non-empty lowercase", i, w.Name)
		}
		if i > 0 && registry[i-1].Name >= w.Name {
			t.Errorf("entry %d: %q does not sort after %q (names must be sorted and unique)", i, w.Name, registry[i-1].Name)
		}
		if !slices.Contains(w.Variants, w.Defaults.Variant) {
			t.Errorf("%s: default variant %q not in Variants %v", w.Name, w.Defaults.Variant, w.Variants)
		}
		if traced := w.Trace != nil; traced != (w.Name == "tpp-timeline") {
			t.Errorf("%s: Trace set = %t, want it set on tpp-timeline only", w.Name, traced)
		}
		if w.UsesSeed {
			seeded = append(seeded, w.Name)
		}
	}
	// The adapters that resolve their seed with Config.seedOr.
	if want := []string{"dsb", "fio", "kvstore", "tpp-timeline", "ycsb"}; !slices.Equal(seeded, want) {
		t.Errorf("UsesSeed set on %v, want %v", seeded, want)
	}
}

// TestSeedBlindWorkloads holds UsesSeed to what the adapters do: a
// workload without it returns identical metrics at seeds 1, 7 and 123, so
// its cells may share one cache entry whatever seed a request names, and
// one with it returns different metrics at some seed.
func TestSeedBlindWorkloads(t *testing.T) {
	for _, w := range All() {
		run := func(seed uint64) Metrics {
			env := NewEnv()
			env.Quick = true
			cfg := w.Defaults
			cfg.Seed = seed
			m, err := w.Run(env, cfg)
			if err != nil {
				t.Fatalf("%s at seed %d: %v", w.Name, seed, err)
			}
			return m
		}
		base, moved := run(1), false
		for _, seed := range []uint64{7, 123} {
			if !reflect.DeepEqual(run(seed), base) {
				moved = true
			}
		}
		if moved != w.UsesSeed {
			t.Errorf("%s: metrics move with the seed = %t, but UsesSeed = %t", w.Name, moved, w.UsesSeed)
		}
	}
}

// TestDefaultsRunnable runs every workload with its unmodified Defaults in a
// quick environment: no error, at least one metric and a positive primary
// value.
func TestDefaultsRunnable(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			env := NewEnv()
			env.Quick = true
			m, err := w.Run(env, w.Defaults)
			if err != nil {
				t.Fatalf("default config does not run: %v", err)
			}
			if len(m.Items) == 0 {
				t.Fatal("run returned no metrics")
			}
			if p := m.Primary(); p.Name == "" || p.Value <= 0 {
				t.Errorf("primary metric %+v not positive", p)
			}
		})
	}
}

// TestRunsDeterministic pins the determinism contract: two runs with equal
// (env, cfg) produce identical metrics.
func TestRunsDeterministic(t *testing.T) {
	for _, w := range All() {
		env := NewEnv()
		env.Quick = true
		a, err1 := w.Run(env, w.Defaults)
		env2 := NewEnv()
		env2.Quick = true
		b, err2 := w.Run(env2, w.Defaults)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v / %v", w.Name, err1, err2)
		}
		if len(a.Items) != len(b.Items) {
			t.Fatalf("%s: metric counts differ", w.Name)
		}
		for i := range a.Items {
			if a.Items[i] != b.Items[i] {
				t.Errorf("%s: metric %d differs: %+v vs %+v", w.Name, i, a.Items[i], b.Items[i])
			}
		}
	}
}

// TestUnknownVariantRejected asserts adapters reject a bogus variant with a
// helpful error instead of panicking.
func TestUnknownVariantRejected(t *testing.T) {
	for _, w := range All() {
		cfg := w.Defaults
		cfg.Variant = "nosuchvariant"
		if _, err := w.Run(NewEnv(), cfg); err == nil || !strings.Contains(err.Error(), "variant") {
			t.Errorf("%s: want unknown-variant error, got %v", w.Name, err)
		}
	}
}

// TestUnknownDeviceRejected asserts adapters reject a bogus device name.
func TestUnknownDeviceRejected(t *testing.T) {
	for _, w := range All() {
		cfg := w.Defaults
		cfg.Device = "CXL-Z"
		env := NewEnv()
		env.Quick = true
		if _, err := w.Run(env, cfg); err == nil {
			t.Errorf("%s: unknown device accepted", w.Name)
		}
	}
}

// TestCatalog sanity-checks the generated EXPERIMENTS.md catalog rows.
func TestCatalog(t *testing.T) {
	cat := Catalog()
	for _, name := range allModels {
		if !strings.Contains(cat, "| `"+name+"` |") {
			t.Errorf("catalog missing row for %s:\n%s", name, cat)
		}
	}
}
