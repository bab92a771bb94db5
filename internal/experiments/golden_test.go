package experiments

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cxlmem/internal/results"
)

// The golden corpus pins the rendered output of every registered experiment
// in quick mode. It exists so engine rewrites (like the packed-tag cache
// engine) can prove byte-identical tables: regenerate the corpus with
//
//	go test ./internal/experiments -run TestGoldenTables -update
//
// only when a model change is *intended* to move the numbers, and say so in
// the commit.
var updateGolden = flag.Bool("update", false, "rewrite the golden experiment tables")

func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".txt")
}

// checkGolden compares got byte for byte against the golden file at path,
// or rewrites the file under -update. Every golden test, text table, wire
// emission or digest list, goes through it.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output diverges from golden %s:\n--- golden ---\n%s\n--- got ---\n%s", path, want, got)
	}
}

// digestWire appends one sha256sum-style line, "digest  label.format", to
// b for each wire format of d: the digest files' line format.
func digestWire(t *testing.T, b *strings.Builder, d *results.Dataset, label string) {
	t.Helper()
	for _, format := range []string{"json", "csv"} {
		out, err := results.Emit(d, format)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(b, "%x  %s.%s\n", sha256.Sum256([]byte(out)), label, format)
	}
}

// TestGoldenTables renders each experiment with the default (exact-warmup)
// options and compares it byte-for-byte against the committed golden file.
func TestGoldenTables(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			o := DefaultOptions()
			o.Quick = true
			o.Parallel = 1
			checkGolden(t, goldenPath(e.ID), e.Run(o).Render())
		})
	}
}
