package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command when a traced
// pass re-executes itself as a child process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		code, err := realMain(os.Args[1:], os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		os.Exit(code)
	}
	os.Exit(m.Run())
}

// benchSpec is the part of ../BENCHMARK.json the smoke test checks.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runBench runs the command with args plus -json and decodes its summary.
func runBench(t *testing.T, args ...string) summary {
	t.Helper()
	var out bytes.Buffer
	code, err := realMain(append(args, "-json"), &out)
	if code != 0 {
		t.Fatalf("bench %v exited %d: %v\n%s", args, code, err, out.String())
	}
	var s summary
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		t.Fatalf("summary: %v\n%s", err, out.String())
	}
	if !s.Correct || s.Failed != 0 || s.Attempted == 0 {
		t.Fatalf("bench %v: %d of %d operations failed", args, s.Failed, s.Attempted)
	}
	return s
}

// names renders name=unit pairs in order, for comparing metric sets.
func names(m map[string]string) string {
	var out []string
	for k, v := range m {
		out = append(out, k+"="+v)
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// TestSmoke runs every workload at a tiny length — one regeneration
// process, one-second loads — and checks that each reports exactly the
// end-to-end metrics BENCHMARK.json names, with their units, and that no
// output was wrong; then one traced pass must report exactly the per-layer
// metrics and write its spans. There are no timing gates.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives cxlbench and cxlserve")
	}
	spec := loadSpec(t)
	want := map[string]string{}
	for _, m := range spec.EndToEnd {
		want[m.Name] = m.Unit
	}
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	var ours []string
	for _, w := range allWorkloads {
		ours = append(ours, w.name)
	}
	if strings.Join(listed, ",") != strings.Join(ours, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, the harness runs %v", listed, ours)
	}
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			s := runBench(t, "-workload", w.name, "-seed", "3", "-seconds", "1")
			got := map[string]string{}
			for name, m := range s.Metrics {
				got[name] = m.Unit
			}
			if names(got) != names(want) {
				t.Errorf("end-to-end metrics:\n%s\nBENCHMARK.json:\n%s", names(got), names(want))
			}
		})
	}

	t.Run("traced", func(t *testing.T) {
		out := filepath.Join(t.TempDir(), "trace.json")
		s := runBench(t, "-workload", "serve-cold", "-seconds", "1", "-trace", "-out", out)
		got := map[string]string{}
		for name, m := range s.Metrics {
			got[name] = m.Unit
		}
		layers := map[string]string{}
		for _, m := range spec.PerLayer {
			layers[m.Name] = m.Unit
		}
		if names(got) != names(layers) {
			t.Errorf("per-layer metrics:\n%s\nBENCHMARK.json:\n%s", names(got), names(layers))
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string][]span
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatal(err)
		}
		if len(doc["serve-cold"]) == 0 {
			t.Error("the trace holds no serve-cold spans")
		}
	})
}

// TestCoverage pins the interval union behind the self-time report.
func TestCoverage(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}, {Start: 50, End: 50}}
	if got := coverage(parent, kids); got != 40 {
		t.Errorf("coverage = %d, want 40", got)
	}
	if got := coverage(parent, nil); got != 0 {
		t.Errorf("coverage of no children = %d, want 0", got)
	}
}

// TestNormalizeArgs pins the "--trace 0" spelling the flag package cannot
// parse on its own.
func TestNormalizeArgs(t *testing.T) {
	got := strings.Join(normalizeArgs([]string{"--workload", "x", "--trace", "0", "--seed", "2", "-trace"}), " ")
	if want := "--workload x -trace=0 --seed 2 -trace"; got != want {
		t.Errorf("normalizeArgs = %q, want %q", got, want)
	}
}
