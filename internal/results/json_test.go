package results

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// MarshalJSON encodes the cell as the single-kind object UnmarshalJSON reads.
// Numbers keep Go's shortest round-trippable float encoding, so nothing is
// lost to display precision. Only the reference encoder calls it.
func (c Cell) MarshalJSON() ([]byte, error) {
	switch c.Kind {
	case KindInt:
		return json.Marshal(struct {
			I int64 `json:"i"`
		}{c.Int})
	case KindFloat:
		return json.Marshal(struct {
			F    float64 `json:"f"`
			Prec int     `json:"prec"`
		}{c.Float, c.Prec})
	case KindPercent:
		return json.Marshal(struct {
			Pct  float64 `json:"pct"`
			Prec int     `json:"prec"`
		}{c.Float, c.Prec})
	}
	return json.Marshal(struct {
		S string `json:"s"`
	}{c.Str})
}

// wire converts the dataset to its pinned JSON shape, normalizing nil slices
// to empty ones so the emitted bytes never flip between null and [].
func (d *Dataset) wire() wireDataset {
	w := wireDataset{
		Schema:  jsonSchemaVersion,
		ID:      d.ID,
		Title:   d.Title,
		Columns: make([]wireColumn, len(d.Columns)),
		Rows:    d.Rows,
		Notes:   d.Notes,
		Provenance: wireProvenance{
			Experiment: d.Prov.ExperimentID,
			Platform:   d.Prov.Platform,
			Scenario:   d.Prov.Scenario,
			Quick:      d.Prov.Quick,
			Seed:       d.Prov.Seed,
			Fidelity:   d.Prov.Fidelity,
		},
	}
	for i, c := range d.Columns {
		w.Columns[i] = wireColumn{Name: c.Name, Unit: c.Unit}
	}
	if w.Rows == nil {
		w.Rows = [][]Cell{}
	}
	if w.Notes == nil {
		w.Notes = []string{}
	}
	return w
}

// referenceJSON is the json emitter's reference: the wire form exactly as
// encoding/json writes it, which is how the emitter produced it before it
// appended by hand.
func referenceJSON(d *Dataset) ([]byte, error) {
	out, err := json.MarshalIndent(d.wire(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// compareJSONWithReference encodes d with the json emitter behind a prefix
// and compares it with referenceJSON: the same bytes, or both failing with
// nothing appended. It describes the first difference, or returns "".
func compareJSONWithReference(d *Dataset) string {
	want, wantErr := referenceJSON(d)
	const prefix = "prefix"
	dst := append(make([]byte, 0, 64), prefix...)
	got, err := jsonEmitter{}.Append(dst, d)
	switch {
	case wantErr != nil && err == nil:
		return fmt.Sprintf("reference fails (%v) but Append succeeded:\n%s", wantErr, got)
	case wantErr != nil && string(got) != prefix:
		return fmt.Sprintf("failed Append changed the buffer to %q", got)
	case wantErr != nil:
		return ""
	case err != nil:
		return fmt.Sprintf("Append failed (%v) where the reference succeeds", err)
	case !bytes.HasPrefix(got, []byte(prefix)):
		return fmt.Sprintf("Append overwrote the caller's prefix: %q", got[:min(len(got), 16)])
	}
	if got = got[len(prefix):]; !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(0, i-80)
		return fmt.Sprintf("encoding differs from the reference at byte %d:\n--- reference ---\n%s\n--- got ---\n%s",
			i, want[lo:min(len(want), i+40)], got[lo:min(len(got), i+40)])
	}
	return ""
}

// jsonGen draws random datasets aimed at the encoder's corners, counting how
// often each corner comes up so a test can prove the generator reached it.
type jsonGen struct {
	r    *rand.Rand
	hits map[string]int
}

func newJSONGen(seed int64) *jsonGen {
	return &jsonGen{r: rand.New(rand.NewSource(seed)), hits: map[string]int{}}
}

func (g *jsonGen) hit(corner string) { g.hits[corner]++ }

// stringPieces are the fragments random strings are built from, with the
// corner each one stands for. Bytes are spelled as \x escapes so the
// invalid UTF-8 cases stay invalid.
var stringPieces = []struct{ corner, s string }{
	{"html <", "<"}, {"html >", ">"}, {"html &", "&"},
	{"quote", `"`}, {"backslash", `\`},
	{"backspace", "\b"}, {"form feed", "\f"}, {"newline", "\n"},
	{"carriage return", "\r"}, {"tab", "\t"},
	{"0x7f", "\x7f"},
	{"invalid 0xff", "\xff"}, {"truncated 0xc3", "\xc3"},
	{"U+2028", "\xe2\x80\xa8"}, {"U+2029", "\xe2\x80\xa9"},
	{"multibyte", "\xc3\xa9"}, {"multibyte", "\xe2\x82\xac"}, {"multibyte", "\xf0\x9d\x84\x9e"},
	{"U+FFFD literal", "\xef\xbf\xbd"},
}

// str draws a string of plain ASCII mixed with escapes, control bytes,
// invalid UTF-8 and arbitrary runes.
func (g *jsonGen) str() string {
	var b []byte
	for n := g.r.Intn(8); n > 0; n-- {
		switch k := g.r.Intn(10); {
		case k < 3:
			b = append(b, "abc XYZ 019-_./:=%"[g.r.Intn(18)])
		case k < 7:
			p := stringPieces[g.r.Intn(len(stringPieces))]
			g.hit(p.corner)
			b = append(b, p.s...)
		case k < 8:
			c := byte(g.r.Intn(0x20))
			if c != '\b' && c != '\f' && c != '\n' && c != '\r' && c != '\t' {
				g.hit("control byte")
			}
			b = append(b, c)
		default:
			b = append(b, string(rune(g.r.Intn(0x110000)))...)
		}
	}
	return string(b)
}

// float draws a value from a float corner: random bit patterns, integers,
// signed zeros, both exponent-form cutoffs and their neighbours,
// subnormals, the largest finite value and, rarely, a non-finite one.
func (g *jsonGen) float() float64 {
	sign := 1.0
	if g.r.Intn(2) == 0 {
		sign = -1
	}
	switch k := g.r.Intn(14); k {
	case 0, 1:
		g.hit("random bits")
		return math.Float64frombits(g.r.Uint64())
	case 2:
		g.hit("integral")
		return float64(g.r.Int63n(2e9) - 1e9)
	case 3:
		if sign < 0 {
			g.hit("-0")
		} else {
			g.hit("+0")
		}
		return math.Copysign(0, sign)
	case 4, 5:
		cut := []float64{1e-6, 1e21}[k-4]
		name := []string{"1e-6", "1e21"}[k-4]
		switch g.r.Intn(3) {
		case 0:
			g.hit(name)
			return sign * cut
		case 1:
			g.hit(name + " below")
			return sign * math.Nextafter(cut, 0)
		default:
			g.hit(name + " above")
			return sign * math.Nextafter(cut, math.Inf(1))
		}
	case 6:
		g.hit("subnormal")
		return sign * math.Float64frombits(g.r.Uint64()&(1<<52-1)|1)
	case 7:
		g.hit("MaxFloat64")
		return sign * math.MaxFloat64
	case 8:
		if g.r.Intn(8) == 0 {
			g.hit("non-finite")
			return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[g.r.Intn(3)]
		}
		fallthrough
	default:
		g.hit("decimal")
		return sign * g.r.Float64() * math.Pow(10, float64(g.r.Intn(30)-12))
	}
}

// int64 draws an integer, including both extremes.
func (g *jsonGen) int64() int64 {
	switch g.r.Intn(6) {
	case 0:
		g.hit("MinInt64")
		return math.MinInt64
	case 1:
		g.hit("MaxInt64")
		return math.MaxInt64
	}
	return g.r.Int63n(2e6) - 1e6
}

// prec draws a display precision: usually small, sometimes negative or
// huge, since the wire form carries it verbatim.
func (g *jsonGen) prec() int {
	switch g.r.Intn(6) {
	case 0:
		g.hit("prec negative")
		return -1 - g.r.Intn(1<<20)
	case 1:
		g.hit("prec large")
		return math.MaxInt - g.r.Intn(4)
	}
	return g.r.Intn(4)
}

// cell draws a cell of any kind, including kinds past KindPercent, which
// encode as strings.
func (g *jsonGen) cell() Cell {
	switch g.r.Intn(5) {
	case 0:
		return Str(g.str())
	case 1:
		return Int(g.int64())
	case 2:
		return Num(g.float(), g.prec())
	case 3:
		return PctPoints(g.float(), g.prec())
	}
	g.hit("unknown kind")
	return Cell{Kind: Kind(4 + g.r.Intn(252)), Str: g.str(), Int: g.int64(), Float: g.float()}
}

// count draws a slice length and whether an empty slice stays nil.
func (g *jsonGen) count(name string) (n int, isNil bool) {
	switch g.r.Intn(4) {
	case 0:
		g.hit(name + " nil")
		return 0, true
	case 1:
		g.hit(name + " empty")
		return 0, false
	}
	return 1 + g.r.Intn(4), false
}

// dataset draws a whole dataset: every slice nil, empty or filled, rows
// that are themselves nil or empty, and the optional fidelity both ways.
func (g *jsonGen) dataset() *Dataset {
	d := &Dataset{ID: g.str(), Title: g.str()}
	if n, isNil := g.count("columns"); !isNil {
		d.Columns = make([]Column, n)
		for i := range d.Columns {
			d.Columns[i] = Column{Name: g.str(), Unit: g.str()}
		}
	}
	if n, isNil := g.count("rows"); !isNil {
		d.Rows = make([][]Cell, n)
		for i := range d.Rows {
			if m, isNil := g.count("row"); !isNil {
				d.Rows[i] = make([]Cell, m)
				for j := range d.Rows[i] {
					d.Rows[i][j] = g.cell()
				}
			}
		}
	}
	if n, isNil := g.count("notes"); !isNil {
		d.Notes = make([]string, n)
		for i := range d.Notes {
			d.Notes[i] = g.str()
		}
	}
	d.Prov = Provenance{
		ExperimentID: g.str(), Platform: g.str(), Scenario: g.str(),
		Quick: g.r.Intn(2) == 0, Seed: g.r.Uint64(),
	}
	if g.r.Intn(4) == 0 {
		g.hit("seed MaxUint64")
		d.Prov.Seed = math.MaxUint64
	}
	if g.r.Intn(2) == 0 {
		g.hit("fidelity set")
		d.Prov.Fidelity = g.str()
	} else {
		g.hit("fidelity empty")
	}
	return d
}

// jsonCorners are the corners TestJSONMatchesReference must reach.
var jsonCorners = []string{
	"html <", "html >", "html &", "quote", "backslash",
	"backspace", "form feed", "newline", "carriage return", "tab", "control byte", "0x7f",
	"invalid 0xff", "truncated 0xc3", "U+2028", "U+2029", "multibyte", "U+FFFD literal",
	"random bits", "integral", "+0", "-0", "decimal", "subnormal", "MaxFloat64", "non-finite",
	"1e-6", "1e-6 below", "1e-6 above", "1e21", "1e21 below", "1e21 above",
	"MinInt64", "MaxInt64", "prec negative", "prec large", "unknown kind",
	"columns nil", "columns empty", "rows nil", "rows empty", "row nil", "row empty",
	"notes nil", "notes empty", "fidelity set", "fidelity empty", "seed MaxUint64",
}

// TestJSONMatchesReference pins the appending encoder to encoding/json on
// generated datasets: equal bytes for every finite dataset, and for one
// with a NaN or infinite cell an error from both with nothing appended.
func TestJSONMatchesReference(t *testing.T) {
	g := newJSONGen(1)
	failed := 0
	for i := 0; i < 5000; i++ {
		d := g.dataset()
		if _, err := referenceJSON(d); err != nil {
			failed++
		}
		if diff := compareJSONWithReference(d); diff != "" {
			t.Fatalf("dataset %d: %s", i, diff)
		}
	}
	for _, c := range jsonCorners {
		if g.hits[c] == 0 {
			t.Errorf("generator never reached %q", c)
		}
	}
	if failed == 0 {
		t.Error("no generated dataset held a non-finite cell")
	}
}

// FuzzJSONMatchesReference runs the reference comparison on fuzzer-chosen
// strings, float bits and integers placed into a generated dataset.
func FuzzJSONMatchesReference(f *testing.F) {
	g := newJSONGen(2)
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, g.str(), math.Float64bits(g.float()), g.int64())
	}
	f.Fuzz(func(t *testing.T, seed int64, s string, bits uint64, n int64) {
		d := newJSONGen(seed).dataset()
		d.Title = s
		d.Notes = append(d.Notes, s)
		x := math.Float64frombits(bits)
		d.AddRow(Str(s), Int(n), Num(x, int(n)), PctPoints(x, -int(n)), Cell{Kind: Kind(n), Str: s})
		if diff := compareJSONWithReference(d); diff != "" {
			t.Fatal(diff)
		}
	})
}
