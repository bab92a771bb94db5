package results

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// sample builds a dataset exercising every cell kind, notes and provenance.
func sample() *Dataset {
	d := New("fig-test", "A synthetic dataset",
		Column{Name: "Device"}, Column{Name: "Latency (ns)", Unit: "ns"},
		Column{Name: "Eff", Unit: "%"}, Column{Name: "Chan"})
	d.AddRow(Str("DDR5-L"), Num(41.03125, 1), Pct(0.701), Int(8))
	d.AddRow(Str("CXL-A"), Num(176.5, 1), Pct(0.4603), Int(1))
	d.AddNote("a note with = signs and %d digits", 42)
	d.Prov = Provenance{ExperimentID: "fig-test", Platform: "table1", Scenario: "dlrm/policy=cxl", Quick: true, Seed: 7}
	return d
}

// TestCellText pins the text rendering of every kind against the legacy
// fmt verbs the pre-formatted tables used.
func TestCellText(t *testing.T) {
	cases := []struct {
		cell Cell
		want string
	}{
		{Str("x y"), "x y"},
		{Int(1234), "1234"},
		{Int(0), "0"},
		{Num(3.14159, 2), fmt.Sprintf("%.2f", 3.14159)},
		{Num(85000, 0), fmt.Sprintf("%.0f", 85000.0)},
		{Pct(0.4567), fmt.Sprintf("%.1f%%", 0.4567*100)},
		{PctPoints(33.4, 0), fmt.Sprintf("%.0f%%", 33.4)},
	}
	for _, c := range cases {
		if got := c.cell.Text(); got != c.want {
			t.Errorf("Text(%+v) = %q, want %q", c.cell, got, c.want)
		}
	}
}

// TestCellValue checks the numeric view used by the csv emitter and tests.
func TestCellValue(t *testing.T) {
	if v, ok := Num(1.5, 2).Value(); !ok || v != 1.5 {
		t.Errorf("Num value = %v, %v", v, ok)
	}
	if v, ok := Int(9).Value(); !ok || v != 9 {
		t.Errorf("Int value = %v, %v", v, ok)
	}
	if v, ok := Pct(0.25).Value(); !ok || v != 25 {
		t.Errorf("Pct value = %v, %v (want percent points)", v, ok)
	}
	if _, ok := Str("x").Value(); ok {
		t.Error("string cells must not be numeric")
	}
}

// TestColumnWidths pins the shared width pass: max of header and cells per
// column, ragged rows tolerated.
func TestColumnWidths(t *testing.T) {
	got := ColumnWidths([]string{"ab", "c"}, [][]string{{"x", "longer"}, {"wide-cell"}})
	want := []int{9, 6}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("widths = %v, want %v", got, want)
	}
}

// TestFormats pins the emitter registry: text is the default, json and csv
// are registered, unknown names fail with a helpful error.
func TestFormats(t *testing.T) {
	if got := Formats(); !reflect.DeepEqual(got, []string{"text", "json", "csv"}) {
		t.Errorf("Formats() = %v", got)
	}
	e, err := Lookup("")
	if err != nil || e.Name() != "text" {
		t.Errorf("empty format should resolve to text: %v, %v", e, err)
	}
	if _, err := Lookup("yaml"); err == nil || !strings.Contains(err.Error(), "yaml") {
		t.Errorf("unknown format error = %v", err)
	}
	for _, f := range Formats() {
		e, err := Lookup(f)
		if err != nil || e.ContentType() == "" {
			t.Errorf("emitter %s: %v content-type %q", f, err, e.ContentType())
		}
	}
}

// TestTextEmitterShape checks the aligned text form's frame (header line,
// dashed rule, note lines) without re-pinning the full corpus — the
// experiments package's golden and property tests do that.
func TestTextEmitterShape(t *testing.T) {
	out := sample().Render()
	lines := strings.Split(out, "\n")
	if lines[0] != "== fig-test: A synthetic dataset ==" {
		t.Errorf("header line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[2], "---") {
		t.Errorf("rule line = %q", lines[2])
	}
	if !strings.Contains(out, "note: a note with = signs and 42 digits") {
		t.Error("note missing from text emission")
	}
	if !strings.Contains(out, "70.1%") {
		t.Error("percent cell missing from text emission")
	}
}

// TestJSONRoundTrip asserts the lossless contract: emit -> parse recovers a
// deeply equal dataset whose text rendering is byte-identical.
func TestJSONRoundTrip(t *testing.T) {
	d := sample()
	out, err := Emit(d, "json")
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseJSON([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, back) {
		t.Errorf("round trip diverges:\n%+v\nvs\n%+v", d, back)
	}
	if back.Render() != d.Render() {
		t.Error("round-tripped text rendering diverges")
	}
	// Field order is pinned: the wire form leads with schema, then id.
	if !strings.HasPrefix(out, "{\n  \"schema\": 1,\n  \"id\": \"fig-test\"") {
		t.Errorf("pinned field order broken:\n%s", out[:80])
	}
}

// TestJSONEmptyDataset pins that empty rows/notes emit as [] (never null),
// keeping the wire shape stable.
func TestJSONEmptyDataset(t *testing.T) {
	d := New("empty", "no rows", Column{Name: "A"})
	out, err := Emit(d, "json")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "null") {
		t.Errorf("empty dataset emits null:\n%s", out)
	}
	back, err := ParseJSON([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != "empty" || len(back.Rows) != 0 {
		t.Errorf("round trip of empty dataset = %+v", back)
	}
}

// TestParseJSONErrors rejects garbage, wrong schema versions, ambiguous
// cells, and a dataset stamped with the retired fastwarm warmup (DESIGN.md
// §21): the golden fig5 wire form parses, the same bytes stamped
// "fastwarmup": true do not, so they are never re-served labelled exact.
func TestParseJSONErrors(t *testing.T) {
	if _, err := ParseJSON([]byte("{")); err == nil {
		t.Error("truncated JSON should fail")
	}
	if _, err := ParseJSON([]byte(`{"schema": 99, "id": "x"}`)); err == nil {
		t.Error("unknown schema version should fail")
	}
	golden, err := os.ReadFile("../experiments/testdata/golden/fig5.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseJSON(golden); err != nil {
		t.Errorf("golden fig5.json: %v", err)
	}
	retired := bytes.Replace(golden, []byte(`"fastwarmup": false`), []byte(`"fastwarmup": true`), 1)
	if bytes.Equal(retired, golden) {
		t.Error(`golden fig5.json carries no "fastwarmup": false field`)
	} else if _, err := ParseJSON(retired); err == nil {
		t.Error(`a dataset stamped "fastwarmup": true should fail`)
	}
	var c Cell
	if err := c.UnmarshalJSON([]byte(`{}`)); err == nil {
		t.Error("kindless cell should fail")
	}
	if err := c.UnmarshalJSON([]byte(`{"s": "x", "i": 3}`)); err == nil {
		t.Error("two-kind cell should fail")
	}
}

// TestCSVEmitter checks the data-only contract: header + rows, strings
// quoted only when needed, numbers at full precision (shortest round-trip
// form), notes dropped.
func TestCSVEmitter(t *testing.T) {
	d := sample()
	out, err := Emit(d, "csv")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("csv has %d records, want header + 2 rows", len(recs))
	}
	if !reflect.DeepEqual(recs[0], []string{"Device", "Latency (ns)", "Eff", "Chan"}) {
		t.Errorf("csv header = %v", recs[0])
	}
	// Full precision: the stored 41.03125 survives, not the displayed 41.0.
	v, err := strconv.ParseFloat(recs[1][1], 64)
	if err != nil || v != 41.03125 {
		t.Errorf("csv float = %q (parsed %v, %v), want full-precision 41.03125", recs[1][1], v, err)
	}
	if strings.Contains(out, "note:") {
		t.Error("csv must not carry note lines")
	}
}
