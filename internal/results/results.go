// Package results is the structured-results core (DESIGN.md §10): every
// experiment and scenario run produces a typed Dataset — named, unit-carrying
// columns over numeric/string cells — instead of pre-formatted text, and a
// pluggable emitter layer (emit.go: text, json, csv) renders it on demand.
//
// The contract that makes the refactor safe is byte-identity: the text
// emitter reproduces the legacy table rendering exactly (the golden corpus
// under internal/experiments/testdata pins it), while the json and csv
// emitters expose the underlying full-precision values. Datasets returned by
// shared caches are treated as immutable; nothing in this package mutates a
// Dataset after it is built, so concurrent emitters are race-free.
package results

import (
	"fmt"
	"strconv"
)

// Kind discriminates the value a Cell carries.
type Kind uint8

const (
	// KindString is a label or other non-numeric cell.
	KindString Kind = iota
	// KindInt is an integer count (channels, migrations, intervals).
	KindInt
	// KindFloat is a fixed-point measurement rendered with Prec decimals.
	KindFloat
	// KindPercent is a percentage in percent points, rendered with Prec
	// decimals and a trailing '%'.
	KindPercent
)

// String names the kind for diagnostics and the JSON wire form.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindPercent:
		return "percent"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Cell is one value of a dataset row. Numeric cells keep the computed
// number; how many decimals the *text* rendering shows is carried in Prec,
// while the json/csv emitters see the full value.
type Cell struct {
	// Kind selects which of the value fields below is meaningful.
	Kind Kind
	// Str is the value of a KindString cell.
	Str string
	// Int is the value of a KindInt cell.
	Int int64
	// Float is the value of a KindFloat cell, or the percent points of a
	// KindPercent cell.
	Float float64
	// Prec is the decimal count of the text rendering of float/percent
	// cells.
	Prec int
}

// Str builds a string cell.
func Str(s string) Cell { return Cell{Kind: KindString, Str: s} }

// Int builds an integer cell.
func Int(n int64) Cell { return Cell{Kind: KindInt, Int: n} }

// Num builds a fixed-point numeric cell rendered with prec decimals.
func Num(v float64, prec int) Cell { return Cell{Kind: KindFloat, Float: v, Prec: prec} }

// Pct builds a percentage cell from a fraction: Pct(0.421) renders as
// "42.1%". The fraction is scaled to percent points at construction — the
// same v*100 the legacy formatter computed — so the text rendering is
// byte-identical to the historical fmt.Sprintf("%.1f%%", v*100).
func Pct(frac float64) Cell { return Cell{Kind: KindPercent, Float: frac * 100, Prec: 1} }

// PctPoints builds a percentage cell from a value already in percent points
// (e.g. a 0–100 allocation ratio), rendered with prec decimals.
func PctPoints(points float64, prec int) Cell {
	return Cell{Kind: KindPercent, Float: points, Prec: prec}
}

// Text is the human rendering of the cell — exactly the string the legacy
// pre-formatted tables held, which is what keeps the text emitter
// byte-identical to the golden corpus.
func (c Cell) Text() string {
	switch c.Kind {
	case KindInt:
		return strconv.FormatInt(c.Int, 10)
	case KindFloat:
		return fmt.Sprintf("%.*f", c.Prec, c.Float)
	case KindPercent:
		return fmt.Sprintf("%.*f%%", c.Prec, c.Float)
	}
	return c.Str
}

// Raw is the full-precision machine rendering used by the csv emitter:
// shortest float form that round-trips, so no precision is lost to display
// rounding.
func (c Cell) Raw() string {
	switch c.Kind {
	case KindInt:
		return strconv.FormatInt(c.Int, 10)
	case KindFloat, KindPercent:
		return strconv.FormatFloat(c.Float, 'g', -1, 64)
	}
	return c.Str
}

// Value returns the cell's numeric value (percent cells in percent points)
// and whether the cell is numeric at all.
func (c Cell) Value() (float64, bool) {
	switch c.Kind {
	case KindInt:
		return float64(c.Int), true
	case KindFloat, KindPercent:
		return c.Float, true
	}
	return 0, false
}

// Column describes one dataset column.
type Column struct {
	// Name is the header label, rendered verbatim by the text emitter (it
	// may embed a display unit, e.g. "Avg latency (ns)").
	Name string
	// Unit is the machine-readable unit of the column's numeric cells
	// ("ns", "GB/s", "%"); empty for labels and unitless ratios.
	Unit string
}

// Provenance records where a dataset came from: the experiment or scenario
// that produced it plus the option knobs that change its numbers. Emitters
// carry it as metadata; the text emitter omits it to stay byte-identical
// with the legacy rendering.
type Provenance struct {
	// ExperimentID is the registry ID of the producing experiment, or
	// "scenario" for a single-cell scenario run.
	ExperimentID string
	// Platform is the options-level platform profile the run defaulted to;
	// empty means the Table-1 machine.
	Platform string
	// Scenario is the canonical scenario spec for single-cell datasets.
	Scenario string
	// Quick records reduced-sample mode.
	Quick bool
	// Seed is the stochastic seed the run used.
	Seed uint64
	// Fidelity records a non-exact measurement tier ("auto" or "fast");
	// empty means exact simulation, so pre-fidelity datasets and the wire
	// bytes of every exact run are unchanged.
	Fidelity string
}

// Dataset is one experiment's structured result: a schema of typed columns,
// rows of Cell values, free-form notes, and provenance. Build it with New /
// AddRow / AddNote; once published (returned from a run, stored in a cache)
// it is immutable by convention.
type Dataset struct {
	// ID is the experiment identifier ("fig3", "matrix-apps", "scenario").
	ID string
	// Title describes the experiment.
	Title string
	// Columns is the typed schema; len(Columns) bounds every row.
	Columns []Column
	// Rows holds the data as typed cells, not pre-formatted text.
	Rows [][]Cell
	// Notes carries qualitative checks and paper references.
	Notes []string
	// Prov records the producing run.
	Prov Provenance
}

// New starts a dataset with the given schema.
func New(id, title string, cols ...Column) *Dataset {
	return &Dataset{ID: id, Title: title, Columns: cols}
}

// AddRow appends one row of typed cells.
func (d *Dataset) AddRow(cells ...Cell) { d.Rows = append(d.Rows, cells) }

// AddNote appends a formatted note line.
func (d *Dataset) AddNote(format string, args ...any) {
	d.Notes = append(d.Notes, fmt.Sprintf(format, args...))
}

// Headers returns the column names in order.
func (d *Dataset) Headers() []string {
	out := make([]string, len(d.Columns))
	for i, c := range d.Columns {
		out[i] = c.Name
	}
	return out
}

// TextRows renders every cell through Cell.Text — the display strings the
// text emitter aligns into columns.
func (d *Dataset) TextRows() [][]string {
	out := make([][]string, len(d.Rows))
	for i, row := range d.Rows {
		r := make([]string, len(row))
		for j, c := range row {
			r[j] = c.Text()
		}
		out[i] = r
	}
	return out
}

// Render returns the aligned text rendering — the text emitter's output,
// which the golden corpus pins byte for byte.
func (d *Dataset) Render() string {
	// The text emitter never fails.
	out, _ := textEmitter{}.Append(nil, d)
	return string(out)
}

// ColumnWidths computes the per-column display width of a header row plus
// data rows: the maximum cell width per column index. It is the text
// emitter's width pass.
func ColumnWidths(headers []string, rows [][]string) []int {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	return widths
}
