package experiments

import (
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"cxlmem/internal/mlc"
	"cxlmem/internal/results"
)

// quick runs every experiment in quick mode once; the dataset contents
// carry the assertions below.
func runQuick(t *testing.T, id string) *results.Dataset {
	t.Helper()
	e, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Quick = true
	d := e.Run(opts)
	if d.ID != id {
		t.Fatalf("dataset id %q != %q", d.ID, id)
	}
	if len(d.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	return d
}

func cell(t *testing.T, d *results.Dataset, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(d.Rows[row][col].Text(), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric", row, col, d.Rows[row][col].Text())
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table2", "table3", "table4",
		"fig3", "fig4a", "fig4b", "fig5",
		"fig6a", "fig6b", "fig6c", "fig6d",
		"fig7", "fig8", "fig9a", "fig9b",
		"fig11a", "fig11b", "fig12a", "fig12b", "fig13",
	}
	want = append(want, "ablation-llc", "ablation-coherence", "ablation-estimator")
	want = append(want, "matrix-apps", "matrix-policy", "matrix-size", "matrix-platform")
	want = append(want, "tpp-timeline")
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d experiments, want %d: %v", len(IDs()), len(want), IDs())
	}
	for _, id := range want {
		if _, err := Get(id); err != nil {
			t.Errorf("missing experiment %s", id)
		}
	}
	if _, err := Get("fig99"); err == nil {
		t.Error("unknown id should error")
	}
}

// TestRegistryTable holds the table to the rules registration used to check
// at run time: IDs sorted and unique, and the knob flags on exactly the
// drivers that consume the knobs — fidelity on the two buffer-latency
// sweeps, platform on the four scenario matrices, the seed on those six
// plus the three DSB figures and tpp-timeline.
func TestRegistryTable(t *testing.T) {
	var fidelity, platform, seed []string
	for i, e := range registry {
		if e.ID == "" || e.Run == nil {
			t.Errorf("entry %d: empty ID or no Run", i)
		}
		if i > 0 && registry[i-1].ID >= e.ID {
			t.Errorf("entry %d: %q does not sort after %q (IDs must be sorted and unique)", i, e.ID, registry[i-1].ID)
		}
		if e.UsesFidelity {
			fidelity = append(fidelity, e.ID)
		}
		if e.UsesPlatform {
			platform = append(platform, e.ID)
		}
		if e.UsesSeed {
			seed = append(seed, e.ID)
		}
	}
	if want := []string{"ablation-llc", "fig5"}; !slices.Equal(fidelity, want) {
		t.Errorf("UsesFidelity set on %v, want %v", fidelity, want)
	}
	if want := []string{"matrix-apps", "matrix-platform", "matrix-policy", "matrix-size"}; !slices.Equal(platform, want) {
		t.Errorf("UsesPlatform set on %v, want %v", platform, want)
	}
	if want := []string{"ablation-llc", "fig5", "fig6b", "fig6c", "fig6d", "matrix-apps", "matrix-platform", "matrix-policy", "matrix-size", "tpp-timeline"}; !slices.Equal(seed, want) {
		t.Errorf("UsesSeed set on %v, want %v", seed, want)
	}
}

// TestSeedBlindExperiments holds UsesSeed to what the drivers do, outside
// the memo cache, so no run can read back another's shared entry: a driver
// without the flag emits at seeds 7 and 123 the text and csv it emits at
// seed 1, and json that differs only in the provenance's seed; a driver
// with it changes its text at one of those seeds at least.
func TestSeedBlindExperiments(t *testing.T) {
	emit := func(d *results.Dataset, format string) string {
		t.Helper()
		out, err := results.Emit(d, format)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, e := range All() {
		o := quickOpts()
		o.Parallel = 2
		base := e.Run(o)
		moved := false
		for _, seed := range []uint64{7, 123} {
			o.Seed = seed
			d := e.Run(o)
			if e.UsesSeed {
				moved = moved || emit(d, "text") != emit(base, "text")
				continue
			}
			for _, format := range []string{"text", "csv"} {
				if emit(d, format) != emit(base, format) {
					t.Errorf("%s: %s at seed %d differs from seed 1, but UsesSeed is unset", e.ID, format, seed)
				}
			}
			stamped := *base
			stamped.Prov.Seed = seed
			if emit(d, "json") != emit(&stamped, "json") {
				t.Errorf("%s: json at seed %d differs from seed 1 beyond the provenance seed, but UsesSeed is unset", e.ID, seed)
			}
		}
		if e.UsesSeed && !moved {
			t.Errorf("%s: text identical at seeds 1, 7 and 123, but UsesSeed is set", e.ID)
		}
	}
}

func TestRenderShape(t *testing.T) {
	tbl := runQuick(t, "table1")
	out := tbl.Render()
	if !strings.Contains(out, "CXL-A") || !strings.Contains(out, "DDR5-R") {
		t.Error("render missing device rows")
	}
	if !strings.Contains(out, "== table1") {
		t.Error("render missing header")
	}
}

func TestFig3Table(t *testing.T) {
	tbl := runQuick(t, "fig3")
	// Row order: DDR5-R, CXL-A, CXL-B, CXL-C. MLC column ascends.
	prev := 0.0
	for r := 0; r < 4; r++ {
		v := cell(t, tbl, r, 1)
		if v <= prev {
			t.Errorf("MLC ratios not ascending at row %d: %v", r, v)
		}
		prev = v
	}
	// memo ld: CXL-A / DDR5-R ≈ 1.35.
	ratio := cell(t, tbl, 1, 2) / cell(t, tbl, 0, 2)
	if ratio < 1.2 || ratio > 1.5 {
		t.Errorf("memo ld CXL-A/DDR5-R = %.2f", ratio)
	}
}

func TestFig4aTable(t *testing.T) {
	tbl := runQuick(t, "fig4a")
	// All-read column matches the paper: 70/46/47/20.
	want := []float64{70, 46, 47, 20}
	for r, w := range want {
		if v := cell(t, tbl, r, 1); v < w-1 || v > w+1 {
			t.Errorf("all-read row %d = %v, want ~%v", r, v, w)
		}
	}
	// CXL-A (row 1) exceeds DDR5-R (row 0) at 2:1.
	if cell(t, tbl, 1, 3) <= cell(t, tbl, 0, 3) {
		t.Error("CXL-A should beat DDR5-R at 2:1")
	}
}

func TestFig5Table(t *testing.T) {
	tbl := runQuick(t, "fig5")
	ddr := cell(t, tbl, 0, 1)
	cxl := cell(t, tbl, 1, 1)
	if cxl >= ddr {
		t.Errorf("CXL buffer latency %v should beat DDR %v", cxl, ddr)
	}
}

// warmShareRuns gives every run of TestAblationLLCThenFig5WarmStates its
// own seed, so its warm-state keys are fresh even under -count.
var warmShareRuns atomic.Uint64

// TestAblationLLCThenFig5WarmStates runs quick ablation-llc then fig5, the
// order of `cxlbench -run all`, and counts warm-state traffic. ablation-llc
// warms its two points (2 misses). fig5 restores both of its points
// (2 hits): its CXL-A point is ablation-llc's isolation-broken point, and its
// DDR5-L point routes to the same node-0 slices as the isolation-kept one.
func TestAblationLLCThenFig5WarmStates(t *testing.T) {
	o := DefaultOptions()
	o.Quick = true
	o.Parallel = 1
	o.Seed = 990200 + warmShareRuns.Add(1) // keys no other test warms
	before := mlc.WarmStateStats()
	for _, id := range []string{"ablation-llc", "fig5"} {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		e.Run(o) // not RunDataset: a dataset-cache hit would skip the warmups
	}
	after := mlc.WarmStateStats()
	if misses, hits := after.Misses-before.Misses, after.Hits-before.Hits; misses != 2 || hits != 2 {
		t.Errorf("ablation-llc then fig5: %d warm-state misses and %d hits, want 2 and 2", misses, hits)
	}
}

func TestFig6aTable(t *testing.T) {
	tbl := runQuick(t, "fig6a")
	// p99 monotone across ratios in the highest-QPS row.
	last := len(tbl.Rows) - 1
	prev := 0.0
	for c := 1; c <= 5; c++ {
		v := cell(t, tbl, last, c)
		if v < prev*0.9 {
			t.Errorf("fig6a: p99 not growing with CXL share at col %d", c)
		}
		if v > prev {
			prev = v
		}
	}
	if cell(t, tbl, last, 5) < 1.3*cell(t, tbl, last, 1) {
		t.Error("fig6a: CXL100 should be well above DDR100 at peak load")
	}
}

func TestFig7Table(t *testing.T) {
	tbl := runQuick(t, "fig7")
	// p99 row: TPP > static.
	if cell(t, tbl, 2, 1) <= cell(t, tbl, 2, 2) {
		t.Error("fig7: TPP p99 should exceed static p99")
	}
}

func TestFig8Table(t *testing.T) {
	tbl := runQuick(t, "fig8")
	for r := range tbl.Rows {
		if cell(t, tbl, r, 2) < cell(t, tbl, r, 1) {
			t.Errorf("fig8 row %d: CXL p99 below DDR", r)
		}
	}
}

func TestFig9aTable(t *testing.T) {
	tbl := runQuick(t, "fig9a")
	// At 32 threads (last row), some CXL ratio beats DDR-only.
	last := len(tbl.Rows) - 1
	ddr := cell(t, tbl, last, 1)
	best := ddr
	for c := 2; c <= 7; c++ {
		if v := cell(t, tbl, last, c); v > best {
			best = v
		}
	}
	if best < 1.3*ddr {
		t.Errorf("fig9a: best ratio (%.2f) should clearly beat DDR-only (%.2f)", best, ddr)
	}
}

func TestFig9bTable(t *testing.T) {
	tbl := runQuick(t, "fig9b")
	// Workload A row: normalized QPS decreasing with CXL share.
	for r := range tbl.Rows {
		prev := 2.0
		for c := 1; c <= 5; c++ {
			v := cell(t, tbl, r, c)
			if v > prev+0.02 {
				t.Errorf("fig9b row %d: normalized QPS not non-increasing", r)
			}
			prev = v
		}
	}
}

func TestTable3Values(t *testing.T) {
	tbl := runQuick(t, "table3")
	cxlAlone := cell(t, tbl, 0, 2)
	cxlCont := cell(t, tbl, 1, 2)
	if cxlAlone < 0.85 || cxlAlone > 1.05 {
		t.Errorf("table3 alone = %v, paper 0.947", cxlAlone)
	}
	if cxlCont < 0.3 || cxlCont > 0.7 {
		t.Errorf("table3 contended = %v, paper 0.504", cxlCont)
	}
}

func TestFig11bInverseCorrelation(t *testing.T) {
	tbl := runQuick(t, "fig11b")
	if len(tbl.Notes) == 0 || !strings.Contains(tbl.Notes[0], "Pearson") {
		t.Fatal("fig11b should report a Pearson value")
	}
	// The note embeds the coefficient; it must be negative.
	var v float64
	if _, err := fmtSscan(tbl.Notes[0], &v); err != nil {
		t.Fatalf("cannot parse Pearson from %q", tbl.Notes[0])
	}
	if v >= 0 {
		t.Errorf("fig11b Pearson = %v, want negative (inverse relation)", v)
	}
}

// fmtSscan extracts the first float after the '=' sign in a string.
func fmtSscan(s string, out *float64) (int, error) {
	if eq := strings.IndexByte(s, '='); eq >= 0 {
		s = s[eq+1:]
	}
	for i := 0; i < len(s); i++ {
		if s[i] == '-' || (s[i] >= '0' && s[i] <= '9') {
			j := i
			for j < len(s) && (s[j] == '-' || s[j] == '.' || (s[j] >= '0' && s[j] <= '9')) {
				j++
			}
			v, err := strconv.ParseFloat(s[i:j], 64)
			if err == nil {
				*out = v
				return 1, nil
			}
		}
	}
	return 0, strconv.ErrSyntax
}

func TestFig12aPositiveSynchrony(t *testing.T) {
	tbl := runQuick(t, "fig12a")
	var v float64
	if _, err := fmtSscan(tbl.Notes[0], &v); err != nil {
		t.Fatal("cannot parse Pearson")
	}
	if v <= 0.3 {
		t.Errorf("fig12a final Pearson = %v, want clearly positive", v)
	}
}

func TestFig13CaptionCompetitive(t *testing.T) {
	tbl := runQuick(t, "fig13")
	for r := range tbl.Rows {
		name := tbl.Rows[r][0].Text()
		ddr := cell(t, tbl, r, 1)
		half := cell(t, tbl, r, 2)
		caption := cell(t, tbl, r, 3)
		best := ddr
		if half > best {
			best = half
		}
		if caption < 0.95*best {
			t.Errorf("fig13 %s: Caption %.2f falls >5%% below best static %.2f", name, caption, best)
		}
	}
}

// TestOptionsResolve pins the one mapping from command-line and facade
// options to run options: platform and fidelity names normalize to the
// registry's lowercase spelling, a zero seed keeps the default seed 1, and
// an unknown platform or fidelity fails.
func TestOptionsResolve(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   Options
		want Options
		bad  bool
	}{
		{name: "zero", in: Options{}, want: Options{Seed: 1}},
		{name: "uppercase platform", in: Options{Platform: "X16-QUAD"}, want: Options{Seed: 1, Platform: "x16-quad"}},
		{name: "uppercase fidelity", in: Options{Fidelity: "FAST"}, want: Options{Seed: 1, Fidelity: FidelityFast}},
		{name: "seed and flags", in: Options{Quick: true, Parallel: 3, Seed: 9, Platform: "snc-off", Fidelity: "auto"},
			want: Options{Quick: true, Parallel: 3, Seed: 9, Platform: "snc-off", Fidelity: FidelityAuto}},
		{name: "unknown platform", in: Options{Platform: "atari2600"}, bad: true},
		{name: "unknown fidelity", in: Options{Fidelity: "sloppy"}, bad: true},
	} {
		got, err := tc.in.Resolve()
		if tc.bad {
			if err == nil {
				t.Errorf("%s: resolved to %+v, want an error", tc.name, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("%s: Resolve() = %+v, %v; want %+v", tc.name, got, err, tc.want)
		}
	}
}
