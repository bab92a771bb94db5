package experiments

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"cxlmem/internal/workloads"
)

// figureDigestPath pins the application figures' json and csv at the two
// option sets beyond wire.sha256's quick seed 1 where their seed rules
// show: quick seed 7 and full seed 1. kvstore, ycsb and fio cells keep their
// calibrated seeds whatever -seed says; dsb cells take it.
var figureDigestPath = filepath.Join("testdata", "golden", "figures.sha256")

// digestFigures are the figures figures.sha256 pins: the seven scenario
// grids plus fig7 and fig13, which share their workloads' configs.
var digestFigures = []string{"fig6a", "fig6b", "fig6c", "fig6d", "fig7", "fig8", "fig9a", "fig9b", "fig13"}

// TestFigureWireDigests holds the application figures' wire bytes at quick
// seed 7 and full seed 1. -update rewrites the file.
func TestFigureWireDigests(t *testing.T) {
	var got strings.Builder
	for _, run := range []struct {
		label string
		o     Options
	}{
		{"quick-seed7", Options{Quick: true, Seed: 7}},
		{"full-seed1", Options{Seed: 1}},
	} {
		for _, id := range digestFigures {
			d, err := RunDataset(id, run.o)
			if err != nil {
				t.Fatal(err)
			}
			digestWire(t, &got, d, id+"."+run.label)
		}
	}
	checkGolden(t, figureDigestPath, got.String())
}

// figureGrids are the application figures' cell functions, with the metric
// each plain grid prints in every cell; fig8 derives its columns.
var figureGrids = []struct {
	id     string
	cell   func(o Options, r, c int) string
	metric string
}{
	{"fig6a", fig6aCell, "p99_us"},
	{"fig6b", dsbCell("compose"), "p99_ms"},
	{"fig6c", dsbCell("readuser"), "p99_ms"},
	{"fig6d", dsbCell("mixed"), "p99_ms"},
	{"fig8", fig8Cell, ""},
	{"fig9a", fig9aCell, "mqps"},
	{"fig9b", fig9bCell, "vs_ddr"},
}

// scenarioValue is the named metric of the /v1/scenario answer for spec;
// the spec must be canonical, the form the cell cache keys on.
func scenarioValue(t *testing.T, o Options, spec, name string) float64 {
	t.Helper()
	sc, err := workloads.ParseScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	if sc.String() != spec {
		t.Fatalf("spec %q is not canonical (%q)", spec, sc.String())
	}
	d, err := ScenarioResult(o, sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range d.Rows {
		if row[0].Str == name {
			v, _ := row[1].Value()
			return v
		}
	}
	t.Fatalf("%s reports no %s", spec, name)
	return 0
}

// TestFigureCellsAreScenarioCells: at quick seeds 1 and 7, every value an
// application figure prints equals, bit for bit, the /v1/scenario answer
// for the spec its cell function names, so any figure cell reproduces
// through /v1/scenario. fig8 takes its Increase from whole picoseconds, as
// the figure does.
func TestFigureCellsAreScenarioCells(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		o := Options{Quick: true, Seed: seed, Parallel: 2}
		for _, fig := range figureGrids {
			d, err := RunDataset(fig.id, o)
			if err != nil {
				t.Fatal(err)
			}
			for r, row := range d.Rows {
				v := func(c int, name string) float64 { return scenarioValue(t, o, fig.cell(o, r, c), name) }
				var want []float64
				switch fig.id {
				case "fig8":
					ddr, cxl := v(0, "p99_us"), v(1, "p99_us")
					want = []float64{ddr, cxl, (math.Round(cxl*1e6)/math.Round(ddr*1e6) - 1) * 100, v(0, "hit_rate") * 100}
				default:
					for c := 0; c < len(row)-1; c++ {
						want = append(want, v(c, fig.metric))
					}
				}
				if len(row) != len(want)+1 {
					t.Fatalf("%s seed %d row %d: %d cells, want %d", fig.id, seed, r, len(row), len(want)+1)
				}
				for c, w := range want {
					if got, _ := row[c+1].Value(); got != w {
						t.Errorf("%s seed %d row %d column %d = %v, its scenario cells give %v", fig.id, seed, r, c+1, got, w)
					}
				}
			}
		}
	}
}
