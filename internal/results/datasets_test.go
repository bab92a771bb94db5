package results_test

import (
	"bytes"
	"testing"

	"cxlmem/internal/experiments"
	"cxlmem/internal/results"
)

// quickOpts are the golden corpus's options: quick, serial, exact warmup.
func quickOpts() experiments.Options {
	o := experiments.DefaultOptions()
	o.Quick = true
	o.Parallel = 1
	return o
}

// lookupJSON resolves the registered json emitter.
func lookupJSON(tb testing.TB) results.Emitter {
	tb.Helper()
	em, err := results.Lookup("json")
	if err != nil {
		tb.Fatal(err)
	}
	return em
}

// quickDataset runs one registered experiment in quick mode.
func quickDataset(tb testing.TB, id string) *results.Dataset {
	tb.Helper()
	d, err := experiments.RunDataset(id, quickOpts())
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// checkReference encodes d with the json emitter and fails unless the bytes
// equal the encoding/json reference.
func checkReference(t *testing.T, em results.Emitter, name string, d *results.Dataset) {
	t.Helper()
	want, err := results.ReferenceJSON(d)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	got, err := em.Append(nil, d)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: json emission (%d bytes) differs from the encoding/json reference (%d bytes)", name, len(got), len(want))
	}
}

// TestJSONMatchesReferenceOnEveryDataset encodes every registered
// experiment in quick mode and every scenario-matrix cell, the datasets
// cxlserve actually serves, against the reference. Only three of them have
// JSON goldens, so this is what catches an encoder bug that only real
// shapes reach.
func TestJSONMatchesReferenceOnEveryDataset(t *testing.T) {
	em := lookupJSON(t)
	for _, id := range experiments.IDs() {
		checkReference(t, em, id, quickDataset(t, id))
	}
	cells := experiments.AllMatrixScenarios()
	if len(cells) == 0 {
		t.Fatal("no matrix cells")
	}
	for _, sc := range cells {
		d, err := experiments.ScenarioResult(quickOpts(), sc)
		if err != nil {
			t.Fatal(err)
		}
		checkReference(t, em, sc.String(), d)
	}
}

// TestJSONAppendAllocationFree pins the encoder's cost model: appending the
// largest served dataset, quick tpp-timeline, into a buffer that already
// holds it allocates nothing.
func TestJSONAppendAllocationFree(t *testing.T) {
	em := lookupJSON(t)
	d := quickDataset(t, "tpp-timeline")
	buf, err := em.Append(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if buf, err = em.Append(buf[:0], d); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Append into a reused buffer allocates %v times per call, want 0", allocs)
	}
}

// BenchmarkEmitJSON times the json wire form of quick tpp-timeline (about
// 91 KB): the appending encoder into a reused buffer, and the encoding/json
// reference it replaced.
func BenchmarkEmitJSON(b *testing.B) {
	em := lookupJSON(b)
	d := quickDataset(b, "tpp-timeline")
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf, _ = em.Append(buf[:0], d)
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		var out []byte
		for i := 0; i < b.N; i++ {
			out, _ = results.ReferenceJSON(d)
		}
		b.SetBytes(int64(len(out)))
	})
}
