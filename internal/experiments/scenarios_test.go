package experiments

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cxlmem/internal/memo"
	"cxlmem/internal/results"
	"cxlmem/internal/topo"
	"cxlmem/internal/workloads"
)

// TestMatrixEquivalenceFreshCache re-asserts the serial-vs-parallel
// byte-identity contract for the matrix cells with a fresh cell cache per
// run: the generic TestSerialParallelEquivalence fills the process-wide
// cache on its serial pass, which would otherwise let memoization serve —
// and so mask — a racy parallel evaluation.
func TestMatrixEquivalenceFreshCache(t *testing.T) {
	serial := DefaultOptions()
	serial.Quick = true
	serial.Parallel = 1
	parallel := serial
	parallel.Parallel = 8
	scs := AllMatrixScenarios()
	want, err := scenarioDatasetCached(memo.NewCache(), serial, "matrix-all", "x", scs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := scenarioDatasetCached(memo.NewCache(), parallel, "matrix-all", "x", scs)
	if err != nil {
		t.Fatal(err)
	}
	if got.Render() != want.Render() {
		t.Errorf("fresh-cache parallel matrix diverges from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			want.Render(), got.Render())
	}
}

// TestRunScenarioMemoized asserts the cell cache makes a repeated matrix
// cell free: the second evaluation is a hit, and the metrics are identical.
func TestRunScenarioMemoized(t *testing.T) {
	o := DefaultOptions()
	o.Quick = true
	sc, err := workloads.ParseScenario("fluid/policy=interleave/size=64M/seed=41")
	if err != nil {
		t.Fatal(err)
	}
	hits0 := cellCache.Stats().Hits
	a, err := RunScenario(o, sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(o, sc)
	if err != nil {
		t.Fatal(err)
	}
	if got := cellCache.Stats().Hits - hits0; got < 1 {
		t.Errorf("second evaluation missed the cache (hits delta %d)", got)
	}
	if len(a.Items) == 0 || len(a.Items) != len(b.Items) {
		t.Fatalf("metric shapes differ: %d vs %d", len(a.Items), len(b.Items))
	}
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			t.Errorf("memoized metric %d differs: %+v vs %+v", i, a.Items[i], b.Items[i])
		}
	}
}

// TestCellKeyDistinguishesOptions pins that quick/seed/platform all
// fingerprint the cell key of a workload that reads its seed — cached
// values must never leak across modes, seeds or machines.
func TestCellKeyDistinguishesOptions(t *testing.T) {
	sc, err := workloads.ParseScenario("kvstore")
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultOptions()
	quick := base
	quick.Quick = true
	seeded := base
	seeded.Seed = 99
	platformed := base
	platformed.Platform = "snc-off"
	parallel := base
	parallel.Parallel = 7
	keys := map[string]bool{}
	for _, o := range []Options{base, quick, seeded, platformed} {
		keys[ScenarioKey(o, sc)] = true
	}
	if len(keys) != 4 {
		t.Errorf("options collapse onto %d keys, want 4", len(keys))
	}
	if ScenarioKey(base, sc) != ScenarioKey(parallel, sc) {
		t.Error("worker count must not change the cell key")
	}
}

// TestCellFoldIsIdempotent: folding a folded spec again under the same
// options returns it unchanged, so a path that forwards or re-folds a cell
// runs it on the same machine and seed. A spec naming Table 1 keeps it
// under another options platform; its key drops the name, so it shares the
// cell of the spec without platform= exactly when the options name no other
// platform.
func TestCellFoldIsIdempotent(t *testing.T) {
	seeded := DefaultOptions()
	seeded.Seed = 3
	sncOff := seeded
	sncOff.Platform = "snc-off"
	parse := func(spec string) workloads.Scenario {
		sc, err := workloads.ParseScenario(spec)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	for _, o := range []Options{DefaultOptions(), seeded, sncOff} {
		for _, spec := range []string{
			"fluid/policy=interleave",
			"fluid/policy=interleave/platform=table1",
			"dlrm/policy=cxl:63/seed=5",
			"kvstore/policy=cxl",
			"kvstore/seed=11/platform=x16-quad",
		} {
			once := o.cell(parse(spec))
			if twice := o.cell(once); twice != once {
				t.Errorf("%s under platform %q, seed %d folds to %s, then to %s", spec, o.Platform, o.Seed, once, twice)
			}
		}
	}
	pinned, bare := parse("fluid/policy=interleave/platform=table1"), parse("fluid/policy=interleave")
	if got := sncOff.cell(pinned).Platform; got != topo.DefaultPlatform {
		t.Errorf("a spec naming %s folds to platform %q under snc-off options", topo.DefaultPlatform, got)
	}
	if ScenarioKey(DefaultOptions(), pinned) != ScenarioKey(DefaultOptions(), bare) {
		t.Errorf("%s and %s should share a key at default options", pinned, bare)
	}
	if ScenarioKey(sncOff, pinned) == ScenarioKey(sncOff, bare) {
		t.Errorf("%s and %s should not share a key under snc-off options", pinned, bare)
	}
}

// TestOptionsPlatform covers the options-level platform default: cells run
// on the named machine, an unknown name surfaces as an error, and a cell's
// own platform= key beats the option.
func TestOptionsPlatform(t *testing.T) {
	o := DefaultOptions()
	o.Quick = true
	o.Platform = "fpga-degraded"
	sc, err := workloads.ParseScenario("fluid")
	if err != nil {
		t.Fatal(err)
	}
	onF, err := runScenarioCached(memo.NewCache(), o, sc)
	if err != nil {
		t.Fatal(err)
	}
	base := o
	base.Platform = ""
	onTable1, err := runScenarioCached(memo.NewCache(), base, sc)
	if err != nil {
		t.Fatal(err)
	}
	fBW, tBW := metricValue(t, onF, "system_bw"), metricValue(t, onTable1, "system_bw")
	if fBW >= tBW {
		t.Errorf("degraded FPGA bandwidth %.2f should trail Table 1's %.2f", fBW, tBW)
	}
	// A cell's own platform= key wins over the options' default.
	pinned, err := workloads.ParseScenario("fluid/platform=table1")
	if err != nil {
		t.Fatal(err)
	}
	onPinned, err := runScenarioCached(memo.NewCache(), o, pinned)
	if err != nil {
		t.Fatal(err)
	}
	if pBW := metricValue(t, onPinned, "system_bw"); pBW != tBW {
		t.Errorf("cell-level platform should override the option: %.2f vs %.2f", pBW, tBW)
	}
	bad := o
	bad.Platform = "atari2600"
	if _, err := runScenarioCached(memo.NewCache(), bad, sc); err == nil {
		t.Error("unknown options platform should fail the cell")
	}
}

// TestOptionsValidate accepts registered (and empty) platforms and rejects
// unknown ones — the pre-dispatch check that keeps a bad -platform out of
// the panic-on-failure matrix drivers.
func TestOptionsValidate(t *testing.T) {
	o := DefaultOptions()
	if err := o.Validate(); err != nil {
		t.Errorf("default options: %v", err)
	}
	o.Platform = "x16-quad"
	if err := o.Validate(); err != nil {
		t.Errorf("registered platform: %v", err)
	}
	o.Platform = "atari2600"
	if err := o.Validate(); err == nil {
		t.Error("unknown platform should fail validation")
	}
}

// TestScenarioEnvBuildsCellPlatform pins the one-System-per-cell contract:
// a platformless cell inherits the options' platform through the fold, a
// cell's own platform beats it, and the env built for the folded cell is
// already on that platform, so Scenario.Run's ForPlatform resolves to the
// identity.
func TestScenarioEnvBuildsCellPlatform(t *testing.T) {
	o := DefaultOptions()
	o.Platform = "snc-off"
	if cell := o.cell(workloads.Scenario{Workload: "fluid", Platform: "fpga-degraded"}); cell.Platform != "fpga-degraded" {
		t.Errorf("cell platform should beat the option: %q", cell.Platform)
	}
	cell := o.cell(workloads.Scenario{Workload: "fluid"})
	if cell.Platform != "snc-off" {
		t.Errorf("platformless cell should inherit the option: %q", cell.Platform)
	}
	env, err := o.scenarioEnv(cell.Platform)
	if err != nil {
		t.Fatal(err)
	}
	if env.Platform != "snc-off" {
		t.Errorf("env for the folded cell is on %q, want snc-off", env.Platform)
	}
	same, err := env.ForPlatform(cell.Platform)
	if err != nil || same != env {
		t.Error("ForPlatform on the cell's platform should be the identity")
	}
}

// TestMatrixPlatformShape pins the headline matrix's coverage contract:
// at least 3 workloads crossed with every registered platform (>= 4).
func TestMatrixPlatformShape(t *testing.T) {
	specs := matrixPlatformSpecs()
	wls := map[string]bool{}
	plats := map[string]bool{}
	for _, s := range specs {
		sc, err := workloads.ParseScenario(s)
		if err != nil {
			t.Fatalf("matrix-platform spec %q: %v", s, err)
		}
		wls[sc.Workload] = true
		plats[sc.Platform] = true
	}
	if len(wls) < 3 {
		t.Errorf("matrix-platform crosses %d workloads, want >= 3", len(wls))
	}
	if len(plats) < 4 {
		t.Errorf("matrix-platform crosses %d platforms, want >= 4", len(plats))
	}
	if len(specs) != len(wls)*len(plats) {
		t.Errorf("%d cells for a %dx%d cross", len(specs), len(wls), len(plats))
	}
}

// TestScenarioTableErrors surfaces a broken cell as an error, not a panic.
func TestScenarioTableErrors(t *testing.T) {
	o := DefaultOptions()
	o.Quick = true
	sc, err := workloads.ParseScenario("ycsb/device=CXL-Z")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ScenarioDataset(o, "x", "x", []workloads.Scenario{sc}); err == nil {
		t.Error("bad device cell should fail the dataset")
	}
}

// TestAllMatrixScenarios checks the -scenario all cross product: every
// registered workload appears, specs are unique, and each cell runs.
func TestAllMatrixScenarios(t *testing.T) {
	all := AllMatrixScenarios()
	seen := map[string]bool{}
	covered := map[string]bool{}
	for _, sc := range all {
		key := sc.String()
		if seen[key] {
			t.Errorf("duplicate cell %q", key)
		}
		seen[key] = true
		covered[sc.Workload] = true
	}
	for _, w := range workloads.All() {
		name := w.Name
		if w.Trace != nil {
			// Event-driven workloads are excluded from the steady-state
			// matrices by design; they have dedicated timeline experiments.
			if covered[name] {
				t.Errorf("event-driven workload %s leaked into the matrix", name)
			}
			continue
		}
		if !covered[name] {
			t.Errorf("matrix misses workload %s", name)
		}
	}
	o := DefaultOptions()
	o.Quick = true
	tbl, err := ScenarioDataset(o, "matrix-all", "full matrix", all)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(all) {
		t.Errorf("table has %d rows for %d cells", len(tbl.Rows), len(all))
	}
	if !strings.Contains(tbl.Render(), "ycsb:a/policy=weighted:85,15") {
		t.Error("rendered matrix missing an expected cell spec")
	}
}

// metricValue looks a cell's measurement up by name.
func metricValue(t *testing.T, m workloads.Metrics, name string) float64 {
	t.Helper()
	for _, it := range m.Items {
		if it.Name == name {
			return it.Value
		}
	}
	t.Fatalf("cell has no %s metric", name)
	return 0
}

// scenarioDigestPath pins the scenario cells' wire bytes under options a
// cell inherits: a non-default seed, a non-default platform, and both.
// wire.sha256 covers cells only at quick seed 1 on Table 1, and
// figures.sha256's figures ignore the platform.
var scenarioDigestPath = filepath.Join("testdata", "golden", "scenarios.sha256")

// TestScenarioWireDigests holds the json and csv of one spec per workload —
// bare, with its own seed=, with its own platform=, and with both — under
// three option sets, plus the -scenario all dataset and the four matrix
// IDs under the two platformed sets. -update rewrites the file.
func TestScenarioWireDigests(t *testing.T) {
	var got strings.Builder
	digest := func(d *results.Dataset, label string) {
		for _, format := range []string{"json", "csv"} {
			out, err := results.Emit(d, format)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%x  %s.%s\n", sha256.Sum256([]byte(out)), label, format)
		}
	}
	for _, run := range []struct {
		label    string
		o        Options
		matrices bool
	}{
		{"quick-seed7", Options{Quick: true, Seed: 7}, false},
		{"quick-snc-off", Options{Quick: true, Seed: 1, Platform: "snc-off"}, true},
		{"quick-seed3-x16-quad", Options{Quick: true, Seed: 3, Platform: "x16-quad"}, true},
	} {
		for _, w := range workloads.All() {
			for _, own := range []string{"", "/seed=11", "/platform=fpga-degraded", "/seed=11/platform=fpga-degraded"} {
				sc, err := workloads.ParseScenario(w.Name + own)
				if err != nil {
					t.Fatal(err)
				}
				d, err := ScenarioResult(run.o, sc)
				if err != nil {
					t.Fatal(err)
				}
				digest(d, sc.String()+"."+run.label)
			}
		}
		if !run.matrices {
			continue
		}
		d, err := ScenarioDataset(run.o, "matrix-all", "full scenario matrix: workload x policy x size", AllMatrixScenarios())
		if err != nil {
			t.Fatal(err)
		}
		digest(d, "matrix-all."+run.label)
		for _, id := range []string{"matrix-apps", "matrix-platform", "matrix-policy", "matrix-size"} {
			d, err := RunDataset(id, run.o)
			if err != nil {
				t.Fatal(err)
			}
			digest(d, id+"."+run.label)
		}
	}
	if *updateGolden {
		if err := os.WriteFile(scenarioDigestPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(scenarioDigestPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("scenario wire forms diverge from %s:\n--- golden ---\n%s--- got ---\n%s", scenarioDigestPath, want, got.String())
	}
}
