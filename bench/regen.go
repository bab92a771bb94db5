package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"syscall"
	"time"

	"cxlmem/internal/experiments"
	"cxlmem/internal/results"
)

// setupReps is how many times a serve pass repeats its set-up; setup_s is
// the median. regen-cold's set-up is a few milliseconds of process start,
// so it repeats fifteen times as often to steady the median.
const setupReps = 3

// runRegenCold is a researcher regenerating every table of the paper from
// a cold process: fresh `cxlbench -run all -quick -parallel 1` processes,
// one after another, each of which must print the golden corpus. It ignores
// the seed, because the goldens pin seed 1.
func runRegenCold(h *harness, p params) (*outcome, error) {
	o := newOutcome()
	// Set-up is what every regeneration pays before its first table:
	// starting the binary and listing the registry.
	var setups []float64
	for i := 0; i < 15*setupReps; i++ {
		t0 := time.Now()
		out, err := h.command(h.cxlbench, "-list").Output()
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("cxlbench -list: %w", err)
		}
		var listed []string
		for _, line := range strings.Split(string(out), "\n") {
			if f := strings.Fields(line); len(f) > 0 {
				listed = append(listed, f[0])
			}
		}
		o.check(strings.Join(listed, ",") == strings.Join(h.ids, ","), "cxlbench -list order %v differs from the registry", listed)
	}
	o.metrics["setup_s"] = median(setups)

	var walls, cpus []float64
	var rssMB, busyMs float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start).Seconds() < p.seconds {
		id := p.tr.begin(p.root, "cxlbench.run_all", fmt.Sprintf("regen-%d", len(walls)))
		cmd := h.command(h.cxlbench, "-run", "all", "-quick", "-parallel", "1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		t0 := time.Now()
		err := cmd.Run()
		wall := time.Since(t0)
		p.tr.finish(id, map[string]any{"bytes": stdout.Len()})
		if err != nil && cmd.ProcessState == nil {
			return nil, fmt.Errorf("cxlbench -run all: %w", err)
		}
		o.check(err == nil, "cxlbench -run all exited with %v: %s", err, stderr.String())
		o.check(bytes.Equal(stdout.Bytes(), h.regenWant), "cxlbench -run all output differs from the golden corpus (%d bytes, want %d)", stdout.Len(), len(h.regenWant))
		ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		walls = append(walls, ms(wall))
		busyMs += ms(wall)
		cpus = append(cpus, float64(ru.Utime.Nano()+ru.Stime.Nano())/1e6)
		rssMB = max(rssMB, float64(ru.Maxrss)/1024) // Maxrss is in KiB on Linux
		p.host.sample()
	}
	o.metrics["p50_ms"] = median(walls)
	o.metrics["tail_ms"] = slices.Max(walls)
	o.metrics["throughput_rps"] = float64(len(walls)) / (busyMs / 1000)
	o.metrics["cpu_ms_per_op"] = median(cpus)
	o.metrics["peak_rss_mb"] = rssMB
	o.metrics["loadgen.ops"] = float64(len(walls))
	o.metrics["loadgen.failed"] = float64(o.failed)
	if p.tr != nil {
		return o, replayRegen(h, o, p)
	}
	return o, nil
}

// replayRegen replays one regeneration in a child process of this binary
// that records an experiments.RunDataset span per ID with a results.Emit
// child span, and checks the replayed output against the goldens too.
func replayRegen(h *harness, o *outcome, p params) error {
	rep, epoch, err := h.runChild(h.ids)
	if err != nil {
		return err
	}
	o.check(rep.Text == string(h.regenWant), "in-process replay output differs from the golden corpus")
	id := p.tr.begin(p.root, "bench.replay", "")
	p.tr.graft(id, epoch, rep.Spans)
	p.tr.finish(id, nil)
	return nil
}

// childReport is what a child process prints: its spans and the text
// rendering of every experiment it ran, each followed by a blank line.
type childReport struct {
	Spans []span `json:"spans"`
	Text  string `json:"text"`
}

// runChild runs the IDs in-process in a fresh child process of this binary
// and returns its report and the moment it was started.
func (h *harness) runChild(ids []string) (*childReport, time.Time, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, time.Time{}, err
	}
	cmd := h.command(exe, "-child", strings.Join(ids, ","))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	epoch := time.Now()
	out, err := cmd.Output()
	if err != nil {
		return nil, epoch, fmt.Errorf("child %v: %w: %s", ids, err, stderr.String())
	}
	var rep childReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return nil, epoch, fmt.Errorf("child %v: %w", ids, err)
	}
	return &rep, epoch, nil
}

// childMain is the child side of runChild: it regenerates the IDs in order
// with the golden options, as `cxlbench -run all -quick -parallel 1` does,
// and prints a childReport.
func childMain(ids []string, w io.Writer) (int, error) {
	tr := newTracer()
	var text strings.Builder
	opts := experiments.DefaultOptions()
	opts.Quick, opts.Parallel = true, 1
	for _, id := range ids {
		run := tr.begin(0, "experiments.RunDataset", id)
		d, err := experiments.RunDataset(id, opts)
		if err != nil {
			return 2, err
		}
		emit := tr.begin(run, "results.Emit", id)
		s, err := results.Emit(d, "text")
		if err != nil {
			return 2, err
		}
		tr.finish(emit, map[string]any{"bytes": len(s)})
		tr.finish(run, map[string]any{"id": id})
		text.WriteString(s)
		text.WriteByte('\n')
	}
	if err := json.NewEncoder(w).Encode(childReport{Spans: tr.spans, Text: text.String()}); err != nil {
		return 2, err
	}
	return 0, nil
}
