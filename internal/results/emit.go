// Pluggable emitters: rendering is a consumer concern, not something the
// experiment drivers bake into their rows. The registry is fixed at compile
// time — text (legacy-identical), json (lossless wire form, see json.go) and
// csv (data-only full-precision view, see csv.go).
package results

import (
	"bytes"
	"fmt"
	"strings"
)

// Emitter renders a Dataset in one output format.
type Emitter interface {
	// Name is the format key accepted by Lookup/Emit ("text", "json", "csv").
	Name() string
	// ContentType is the HTTP media type of the emitted bytes.
	ContentType() string
	// Append appends the dataset's rendering to dst and returns the
	// extended buffer. On error the returned buffer's contents are
	// unspecified. Append must not mutate d — cached datasets are emitted
	// concurrently.
	Append(dst []byte, d *Dataset) ([]byte, error)
}

// emitters is the fixed registry in presentation order: the default format
// first.
var emitters = []Emitter{textEmitter{}, jsonEmitter{}, csvEmitter{}}

// Formats lists the registered emitter names, default first.
func Formats() []string {
	out := make([]string, len(emitters))
	for i, e := range emitters {
		out[i] = e.Name()
	}
	return out
}

// Lookup resolves a format name to its emitter; the empty name selects the
// default (text).
func Lookup(format string) (Emitter, error) {
	if format == "" {
		return emitters[0], nil
	}
	for _, e := range emitters {
		if e.Name() == format {
			return e, nil
		}
	}
	return nil, fmt.Errorf("results: unknown format %q (have %s)", format, strings.Join(Formats(), ", "))
}

// Emit renders the dataset in the named format and returns it as a string.
func Emit(d *Dataset, format string) (string, error) {
	e, err := Lookup(format)
	if err != nil {
		return "", err
	}
	out, err := e.Append(nil, d)
	if err != nil {
		return "", err
	}
	return string(out), nil
}

// textEmitter reproduces the legacy aligned-table rendering byte-for-byte:
// "== id: title ==", padded header, dashed rule, padded rows, "note:" lines.
type textEmitter struct{}

// Name implements Emitter.
func (textEmitter) Name() string { return "text" }

// ContentType implements Emitter.
func (textEmitter) ContentType() string { return "text/plain; charset=utf-8" }

// Append implements Emitter; it never fails.
func (textEmitter) Append(dst []byte, d *Dataset) ([]byte, error) {
	b := bytes.NewBuffer(dst)
	fmt.Fprintf(b, "== %s: %s ==\n", d.ID, d.Title)
	headers := d.Headers()
	rows := d.TextRows()
	widths := ColumnWidths(headers, rows)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	for i, width := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", width))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	for _, n := range d.Notes {
		fmt.Fprintf(b, "note: %s\n", n)
	}
	return b.Bytes(), nil
}
