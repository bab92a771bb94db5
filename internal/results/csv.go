// CSV wire form: the data-only view for spreadsheets and plotting scripts.
// One header record of column names followed by one record per row; numeric
// cells are emitted at full precision (Cell.Raw — shortest float form that
// round-trips), not at display precision. Notes and provenance are
// intentionally dropped: they live in the json emitter, and comment lines
// would break strict CSV consumers. Field order is the column order, pinned
// by the dataset schema.
package results

import (
	"bytes"
	"encoding/csv"
)

// csvEmitter writes the dataset's rows as RFC-4180 CSV.
type csvEmitter struct{}

// Name implements Emitter.
func (csvEmitter) Name() string { return "csv" }

// ContentType implements Emitter.
func (csvEmitter) ContentType() string { return "text/csv; charset=utf-8" }

// Append implements Emitter.
func (csvEmitter) Append(dst []byte, d *Dataset) ([]byte, error) {
	b := bytes.NewBuffer(dst)
	cw := csv.NewWriter(b)
	if err := cw.Write(d.Headers()); err != nil {
		return nil, err
	}
	for _, row := range d.Rows {
		rec := make([]string, len(row))
		for i, c := range row {
			rec[i] = c.Raw()
		}
		if err := cw.Write(rec); err != nil {
			return nil, err
		}
	}
	cw.Flush()
	return b.Bytes(), cw.Error()
}
