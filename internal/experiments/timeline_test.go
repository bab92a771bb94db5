package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cxlmem/internal/sim"
	"cxlmem/internal/workloads"
)

// traceDigestPath holds one line per replay, "digest  label records": the
// sha256 of every trace record a tap saw, in order, and how many there were.
var traceDigestPath = filepath.Join("testdata", "golden", "trace.sha256")

// TestTraceStreamDigests pins the complete event stream of three replays:
// tpp-timeline at quick seeds 1 and 7, and a steady tpp-timeline cell. The
// wire digests see only the epochs a run reduces to; this sees every
// enqueue, dispatch and completion, with its sequence number, times and
// labels, so a scheduler change that reorders, adds or drops one event
// fails here. -update rewrites the file.
func TestTraceStreamDigests(t *testing.T) {
	steady, err := workloads.ParseScenario("tpp-timeline:steady/qps=20000")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, replay := range []struct {
		label string
		run   func(sim.Tap) error
	}{
		{"tpp-timeline.quick-seed1", func(tap sim.Tap) error {
			return TraceDataset("tpp-timeline", Options{Quick: true, Seed: 1}, tap)
		}},
		{"tpp-timeline.quick-seed7", func(tap sim.Tap) error {
			return TraceDataset("tpp-timeline", Options{Quick: true, Seed: 7}, tap)
		}},
		{steady.String() + ".quick-seed1", func(tap sim.Tap) error {
			return TraceScenario(Options{Quick: true, Seed: 1}, steady, tap)
		}},
	} {
		h := sha256.New()
		var rec []byte
		records := 0
		err := replay.run(sim.TapFunc(func(te sim.TraceEvent) {
			rec = append(rec[:0], byte(te.Phase))
			rec = binary.LittleEndian.AppendUint64(rec, te.Seq)
			rec = binary.LittleEndian.AppendUint64(rec, uint64(te.At))
			rec = binary.LittleEndian.AppendUint64(rec, uint64(te.Now))
			rec = append(append(rec, te.Actor...), 0)
			rec = append(append(rec, te.Kind...), 0)
			h.Write(rec)
			records++
		}))
		if err != nil {
			t.Fatal(err)
		}
		if records == 0 {
			t.Fatalf("%s: the replay traced no records", replay.label)
		}
		fmt.Fprintf(&got, "%x  %s %d\n", h.Sum(nil), replay.label, records)
	}
	if *updateGolden {
		if err := os.WriteFile(traceDigestPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(traceDigestPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("trace streams diverge from %s:\n--- golden ---\n%s--- got ---\n%s", traceDigestPath, want, got.String())
	}
}
