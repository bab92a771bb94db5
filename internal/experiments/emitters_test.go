package experiments

import (
	"encoding/csv"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cxlmem/internal/results"
	"cxlmem/internal/workloads"
)

// quickOpts are the options of the golden corpus: quick, serial, exact
// warmup.
func quickOpts() Options {
	o := DefaultOptions()
	o.Quick = true
	o.Parallel = 1
	return o
}

// TestDatasetJSONRoundTripAllExperiments asserts losslessness end to end:
// every registered experiment's dataset survives Dataset -> json -> Dataset
// with deep equality of the re-rendered text.
func TestDatasetJSONRoundTripAllExperiments(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			d := e.Run(quickOpts())
			out, err := results.Emit(d, "json")
			if err != nil {
				t.Fatal(err)
			}
			back, err := results.ParseJSON([]byte(out))
			if err != nil {
				t.Fatal(err)
			}
			if back.Render() != d.Render() {
				t.Error("JSON round trip changed the text rendering")
			}
			if len(back.Rows) != len(d.Rows) || len(back.Columns) != len(d.Columns) {
				t.Errorf("JSON round trip changed the shape: %dx%d vs %dx%d",
					len(back.Rows), len(back.Columns), len(d.Rows), len(d.Columns))
			}
		})
	}
}

// TestDatasetCSVFidelityAllExperiments parses every experiment's csv
// emission back and checks each numeric cell survived at full precision.
func TestDatasetCSVFidelityAllExperiments(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			d := e.Run(quickOpts())
			out, err := results.Emit(d, "csv")
			if err != nil {
				t.Fatal(err)
			}
			recs, err := csv.NewReader(strings.NewReader(out)).ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != len(d.Rows)+1 {
				t.Fatalf("csv has %d records for %d rows", len(recs), len(d.Rows))
			}
			for i, row := range d.Rows {
				for j, c := range row {
					want, numeric := c.Value()
					if !numeric {
						continue
					}
					got, err := strconv.ParseFloat(recs[i+1][j], 64)
					if err != nil || got != want {
						t.Fatalf("cell (%d,%d): csv %q != value %v (%v)", i, j, recs[i+1][j], want, err)
					}
				}
			}
		})
	}
}

// goldenEmitPath locates the pinned json/csv emissions next to the text
// corpus.
func goldenEmitPath(name, format string) string {
	return filepath.Join("testdata", "golden", name+"."+format)
}

// TestGoldenEmitters pins the json and csv emissions of a latency figure
// (fig5), a scenario matrix (matrix-platform) and a single scenario cell —
// the wire forms downstream dashboards consume must stay byte-stable.
func TestGoldenEmitters(t *testing.T) {
	o := quickOpts()
	fig5, err := RunDataset("fig5", o)
	if err != nil {
		t.Fatal(err)
	}
	matrix, err := RunDataset("matrix-platform", o)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := workloads.ParseScenario("dlrm/policy=cxl:63/threads=32")
	if err != nil {
		t.Fatal(err)
	}
	cell, err := ScenarioResult(o, sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		d    *results.Dataset
	}{
		{"fig5", fig5},
		{"matrix-platform", matrix},
		{"scenario-cell", cell},
	} {
		for _, format := range []string{"json", "csv"} {
			t.Run(tc.name+"/"+format, func(t *testing.T) {
				got, err := results.Emit(tc.d, format)
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, goldenEmitPath(tc.name, format), got)
			})
		}
	}
}

// wireDigestPath holds one sha256sum-style line, "digest  id.format", per
// registered experiment and wire format at the golden options.
var wireDigestPath = filepath.Join("testdata", "golden", "wire.sha256")

// TestWireDigests pins every experiment's json and csv bytes, not only the
// three emissions TestGoldenEmitters keeps whole: a float that moves in its
// last bits leaves the text table unchanged but fails here. -update rewrites
// the file.
func TestWireDigests(t *testing.T) {
	var got strings.Builder
	for _, e := range All() {
		d, err := RunDataset(e.ID, quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		digestWire(t, &got, d, e.ID)
	}
	checkGolden(t, wireDigestPath, got.String())
}

// TestRunDatasetMemoized pins the dataset-level cache: the second RunDataset
// for the same (id, options) returns the same shared dataset without
// re-running the driver, and the worker count does not fork the key.
func TestRunDatasetMemoized(t *testing.T) {
	o := quickOpts()
	a, err := RunDataset("table2", o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDataset("table2", o)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second RunDataset should return the cached dataset pointer")
	}
	par := o
	par.Parallel = 8
	c, err := RunDataset("table2", par)
	if err != nil {
		t.Fatal(err)
	}
	if a != c {
		t.Error("worker count must not fork the dataset cache key")
	}
	quick := o
	quick.Quick = false
	d2, err := RunDataset("table2", quick)
	if err != nil {
		t.Fatal(err)
	}
	if a == d2 {
		t.Error("quick mode must fork the dataset cache key")
	}
	if _, err := RunDataset("fig99", o); err == nil {
		t.Error("unknown id should error")
	}
	bad := o
	bad.Platform = "atari2600"
	if _, err := RunDataset("matrix-apps", bad); err == nil {
		t.Error("unknown platform should fail before dispatch")
	}
}

// TestRunDatasetPlatformScope pins the platform-knob scoping: fixed figures
// ignore Options.Platform (one cache entry, provenance never labeled with
// another machine), while matrix experiments consume it.
func TestRunDatasetPlatformScope(t *testing.T) {
	o := quickOpts()
	base, err := RunDataset("table2", o)
	if err != nil {
		t.Fatal(err)
	}
	plat := o
	plat.Platform = "x16-quad"
	onPlat, err := RunDataset("table2", plat)
	if err != nil {
		t.Fatal(err)
	}
	if onPlat != base {
		t.Error("platform option must not fork a fixed figure's cache entry")
	}
	if onPlat.Prov.Platform != "" {
		t.Errorf("fixed figure labeled with platform %q", onPlat.Prov.Platform)
	}
	// A matrix experiment is platform-sensitive: distinct datasets, honest
	// provenance.
	mBase, err := RunDataset("matrix-apps", o)
	if err != nil {
		t.Fatal(err)
	}
	mPlat, err := RunDataset("matrix-apps", plat)
	if err != nil {
		t.Fatal(err)
	}
	if mBase == mPlat {
		t.Error("platform option must fork a matrix experiment's cache entry")
	}
	if mPlat.Prov.Platform != "x16-quad" {
		t.Errorf("matrix provenance platform = %q, want x16-quad", mPlat.Prov.Platform)
	}
	if mBase.Render() == mPlat.Render() {
		t.Error("matrix cells should move with the platform")
	}
}

// TestRunDatasetPanicRecovered pins the cache-poisoning fix: a panicking
// driver becomes a cached error that reports the same way on every revisit
// instead of a done-but-empty memo entry.
func TestRunDatasetPanicRecovered(t *testing.T) {
	// Safe to swap: top-level tests run sequentially and the registry is
	// only read during their serial phases. The driver joins a copy, so
	// the table itself is never written.
	saved := registry
	registry = append(slices.Clone(registry), Experiment{ID: "test-panic", Desc: "panicking driver (test only)", Run: func(Options) *results.Dataset {
		panic("boom")
	}})
	defer func() { registry = saved }()
	o := quickOpts()
	for i := 0; i < 2; i++ {
		if _, err := RunDataset("test-panic", o); err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("attempt %d: err = %v, want the recovered panic", i, err)
		}
	}
}

// TestScenarioResultDataset checks the single-cell structured form: one row
// per metric, provenance carrying the canonical spec.
func TestScenarioResultDataset(t *testing.T) {
	o := quickOpts()
	sc, err := workloads.ParseScenario("fluid/policy=interleave/size=64M")
	if err != nil {
		t.Fatal(err)
	}
	d, err := ScenarioResult(o, sc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := RunScenario(o, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != len(m.Items) {
		t.Fatalf("dataset has %d rows for %d metrics", len(d.Rows), len(m.Items))
	}
	if d.Rows[0][0].Text() != m.Primary().Name {
		t.Errorf("first row %q should be the primary metric %q", d.Rows[0][0].Text(), m.Primary().Name)
	}
	if v, ok := d.Rows[0][1].Value(); !ok || v != m.Primary().Value {
		t.Errorf("primary value %v != metric %v", v, m.Primary().Value)
	}
	if d.Prov.Scenario != sc.String() {
		t.Errorf("provenance scenario = %q, want %q", d.Prov.Scenario, sc.String())
	}
	bad := o
	bad.Platform = "atari2600"
	if _, err := ScenarioResult(bad, sc); err == nil {
		t.Error("unknown platform should fail scenario results")
	}
}
