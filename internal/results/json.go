// JSON wire form: the lossless emitter. jsonEmitter.Append writes the
// pinned form straight into the caller's buffer — two-space indent, fields
// in a fixed order, a trailing newline — with no reflection, and with no
// allocation once the buffer is large enough. Byte stability comes from
// that write order alone. The bytes are the ones encoding/json's
// MarshalIndent produced for the wire structs below; json_test.go keeps that
// reference, TestJSONMatchesReference and FuzzJSONMatchesReference pin the
// encoder to it on generated datasets, TestJSONMatchesReferenceOnEveryDataset
// on every served one, and the golden files under
// internal/experiments/testdata pin three of them outright. ParseJSON
// inverts the emitter exactly; the round-trip property test asserts
// Dataset -> json -> Dataset -> text equals the original text for every
// registered experiment.
package results

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// wireColumn is the JSON form of a Column, as ParseJSON decodes it.
type wireColumn struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// wireProvenance is the JSON form of a Provenance, as ParseJSON decodes it.
type wireProvenance struct {
	Experiment string `json:"experiment"`
	Platform   string `json:"platform"`
	Scenario   string `json:"scenario"`
	Quick      bool   `json:"quick"`
	// FastWarmup is the retired warmup knob (DESIGN.md §21). The emitter
	// always writes false; ParseJSON refuses true, so bytes measured under
	// the retired policy are never re-served as exact.
	FastWarmup bool   `json:"fastwarmup"`
	Seed       uint64 `json:"seed"`
	// Fidelity is omitted when empty (exact), keeping exact-run wire bytes
	// identical to the pre-fidelity schema.
	Fidelity string `json:"fidelity,omitempty"`
}

// wireDataset is the top-level JSON form of a Dataset, as ParseJSON decodes
// it, with its fields in the order jsonEmitter.Append writes them.
type wireDataset struct {
	Schema     int            `json:"schema"`
	ID         string         `json:"id"`
	Title      string         `json:"title"`
	Columns    []wireColumn   `json:"columns"`
	Rows       [][]Cell       `json:"rows"`
	Notes      []string       `json:"notes"`
	Provenance wireProvenance `json:"provenance"`
}

// jsonSchemaVersion is bumped whenever the wire form changes shape.
const jsonSchemaVersion = 1

// UnmarshalJSON decodes a cell from its single-kind wire object: {"s":…} for
// strings, {"i":…} for ints, {"f":…,"prec":…} for floats, {"pct":…,"prec":…}
// for percents (value in percent points). Exactly one of the kind keys must
// be present.
func (c *Cell) UnmarshalJSON(data []byte) error {
	var w struct {
		S    *string  `json:"s"`
		I    *int64   `json:"i"`
		F    *float64 `json:"f"`
		Pct  *float64 `json:"pct"`
		Prec int      `json:"prec"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	set := 0
	for _, ok := range []bool{w.S != nil, w.I != nil, w.F != nil, w.Pct != nil} {
		if ok {
			set++
		}
	}
	if set != 1 {
		return fmt.Errorf("results: cell %s must carry exactly one of s/i/f/pct", data)
	}
	switch {
	case w.S != nil:
		*c = Cell{Kind: KindString, Str: *w.S}
	case w.I != nil:
		*c = Cell{Kind: KindInt, Int: *w.I}
	case w.F != nil:
		*c = Cell{Kind: KindFloat, Float: *w.F, Prec: w.Prec}
	default:
		*c = Cell{Kind: KindPercent, Float: *w.Pct, Prec: w.Prec}
	}
	return nil
}

// jsonEmitter writes the dataset's pinned, indented JSON wire form.
type jsonEmitter struct{}

// Name implements Emitter.
func (jsonEmitter) Name() string { return "json" }

// ContentType implements Emitter.
func (jsonEmitter) ContentType() string { return "application/json" }

// Append implements Emitter. Columns, rows and notes are written as [] when
// empty, a nil row as null. A NaN or infinite cell has no JSON form: Append
// then returns dst unchanged with an error.
func (jsonEmitter) Append(dst []byte, d *Dataset) ([]byte, error) {
	b := append(dst, "{\n  \"schema\": "...)
	b = strconv.AppendInt(b, jsonSchemaVersion, 10)
	b = append(b, ",\n  \"id\": "...)
	b = appendJSONString(b, d.ID)
	b = append(b, ",\n  \"title\": "...)
	b = appendJSONString(b, d.Title)

	b = append(b, ",\n  \"columns\": ["...)
	for i, c := range d.Columns {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    {\n      \"name\": "...)
		b = appendJSONString(b, c.Name)
		b = append(b, ",\n      \"unit\": "...)
		b = appendJSONString(b, c.Unit)
		b = append(b, "\n    }"...)
	}
	b = closeJSONArray(b, len(d.Columns))

	b = append(b, ",\n  \"rows\": ["...)
	for i, row := range d.Rows {
		if i > 0 {
			b = append(b, ',')
		}
		if row == nil {
			b = append(b, "\n    null"...)
			continue
		}
		b = append(b, "\n    ["...)
		for j, c := range row {
			if j > 0 {
				b = append(b, ',')
			}
			var ok bool
			if b, ok = appendJSONCell(b, c); !ok {
				return dst, fmt.Errorf("results: %s row %d column %d: unsupported JSON value %v", d.ID, i, j, c.Float)
			}
		}
		if len(row) > 0 {
			b = append(b, "\n    "...)
		}
		b = append(b, ']')
	}
	b = closeJSONArray(b, len(d.Rows))

	b = append(b, ",\n  \"notes\": ["...)
	for i, n := range d.Notes {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    "...)
		b = appendJSONString(b, n)
	}
	b = closeJSONArray(b, len(d.Notes))

	p := &d.Prov
	b = append(b, ",\n  \"provenance\": {\n    \"experiment\": "...)
	b = appendJSONString(b, p.ExperimentID)
	b = append(b, ",\n    \"platform\": "...)
	b = appendJSONString(b, p.Platform)
	b = append(b, ",\n    \"scenario\": "...)
	b = appendJSONString(b, p.Scenario)
	b = append(b, ",\n    \"quick\": "...)
	b = strconv.AppendBool(b, p.Quick)
	b = append(b, ",\n    \"fastwarmup\": false,\n    \"seed\": "...)
	b = strconv.AppendUint(b, p.Seed, 10)
	if p.Fidelity != "" {
		b = append(b, ",\n    \"fidelity\": "...)
		b = appendJSONString(b, p.Fidelity)
	}
	return append(b, "\n  }\n}\n"...), nil
}

// closeJSONArray ends a top-level array of n elements opened with "[":
// "[]" when empty, otherwise the closing bracket on its own line.
func closeJSONArray(b []byte, n int) []byte {
	if n == 0 {
		return append(b, ']')
	}
	return append(b, "\n  ]"...)
}

// appendJSONCell appends one cell object at row-element indentation, keyed
// by its kind as UnmarshalJSON reads it; ok is false for a non-finite number.
func appendJSONCell(b []byte, c Cell) (_ []byte, ok bool) {
	b = append(b, "\n      {\n        "...)
	switch c.Kind {
	case KindInt:
		b = append(b, "\"i\": "...)
		b = strconv.AppendInt(b, c.Int, 10)
	case KindFloat, KindPercent:
		if math.IsNaN(c.Float) || math.IsInf(c.Float, 0) {
			return b, false
		}
		if c.Kind == KindFloat {
			b = append(b, "\"f\": "...)
		} else {
			b = append(b, "\"pct\": "...)
		}
		b = appendJSONFloat(b, c.Float)
		b = append(b, ",\n        \"prec\": "...)
		b = strconv.AppendInt(b, int64(c.Prec), 10)
	default:
		b = append(b, "\"s\": "...)
		b = appendJSONString(b, c.Str)
	}
	return append(b, "\n      }"...), true
}

// appendJSONFloat appends a finite float the way encoding/json does (the
// ES6 number-to-string rule): the shortest round-tripping decimal, in
// exponent form only below 1e-6 or from 1e21 up, with a one-digit negative
// exponent unpadded (1e-07 becomes 1e-7).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// hexDigits are the lowercase digits of encoding/json's \u00XX escapes.
const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a quoted JSON string escaped exactly as
// encoding/json escapes it: \" \\ \b \f \n \r \t, other control bytes as
// \u00XX, the HTML-sensitive < > & as \u003c \u003e \u0026, U+2028 and
// U+2029 as \u2028 and \u2029, and each byte of invalid UTF-8 as \ufffd.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// ParseJSON decodes a dataset from its JSON wire form — the inverse of the
// json emitter, used by downstream consumers (and the round-trip tests) to
// recover typed cells from served results.
func ParseJSON(data []byte) (*Dataset, error) {
	var w wireDataset
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("results: bad dataset JSON: %w", err)
	}
	if w.Schema != jsonSchemaVersion {
		return nil, fmt.Errorf("results: unsupported dataset schema %d (want %d)", w.Schema, jsonSchemaVersion)
	}
	if w.Provenance.FastWarmup {
		return nil, fmt.Errorf("results: dataset measured with the retired fastwarmup policy")
	}
	d := New(w.ID, w.Title)
	for _, c := range w.Columns {
		d.Columns = append(d.Columns, Column{Name: c.Name, Unit: c.Unit})
	}
	d.Rows = w.Rows
	d.Notes = w.Notes
	d.Prov = Provenance{
		ExperimentID: w.Provenance.Experiment,
		Platform:     w.Provenance.Platform,
		Scenario:     w.Provenance.Scenario,
		Quick:        w.Provenance.Quick,
		Seed:         w.Provenance.Seed,
		Fidelity:     w.Provenance.Fidelity,
	}
	return d, nil
}
