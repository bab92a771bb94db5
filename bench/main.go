// Command bench is cxlmem's layered end-to-end benchmark. It builds
// cxlbench and cxlserve from the enclosing checkout, drives the built
// binaries from this one process over loopback (never more than two
// connections or clients of load), checks every output byte against the
// golden corpus or an in-process reference, and prints one line per metric
//
//	<workload> <metric> <value> <unit>
//
// and, as the last line, a JSON summary with the keys correct, attempted,
// failed and metrics. It exits 1 if any output was wrong and 2 if the
// benchmark itself could not run.
//
// With -trace each workload runs a second time with spans recorded around
// every call into a layer, followed by in-process probes of the layers'
// public functions; the summary then carries the per-layer metrics instead
// of the end-to-end ones, and the spans are written to -out.
//
//	go run .                                         # all four workloads
//	go run . -workload serve-warm -seed 7 -seconds 10
//	go run . -trace -out trace.json
//	bash bench/run.sh --workload regen-cold --seed 1 --seconds 10 --trace 0
//
// README.md explains the workloads, the metrics and how to compare commits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// workload is one traffic mix the benchmark runs.
type workload struct {
	name string
	run  func(h *harness, p params) (*outcome, error)
}

// allWorkloads is the benchmark's fixed set, in the order a full run takes
// them. README.md records why each exists.
var allWorkloads = []workload{
	{"regen-cold", runRegenCold},
	{"serve-warm", runServeWarm},
	{"serve-cold", runServeCold},
	{"serve-proxy", runServeProxy},
}

// params are the inputs of one measured pass.
type params struct {
	seed    uint64
	seconds float64
	tr      *tracer // nil when the pass is untraced
	root    int     // the pass's root span
	host    *hostSample
}

// outcome is one pass's metrics by name plus the correctness tally every
// check feeds.
type outcome struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	failures  []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// check counts one checked operation, failed unless ok, and returns ok.
func (o *outcome) check(ok bool, format string, args ...any) bool {
	o.attempted++
	if !ok {
		o.failed++
		if len(o.failures) < 10 {
			o.failures = append(o.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// absorb adds another pass's correctness tally to o.
func (o *outcome) absorb(other *outcome) {
	o.attempted += other.attempted
	o.failed += other.failed
	for _, f := range other.failures {
		if len(o.failures) < 10 {
			o.failures = append(o.failures, f)
		}
	}
}

// report is what one workload contributes to the output.
type report struct {
	name   string
	e2e    *outcome // the untraced pass
	traced *outcome // the traced pass plus the probes; nil without -trace
	selfMs map[string]float64
	spans  []span
}

// metricValue is one entry of the summary's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	code, err := realMain(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	os.Exit(code)
}

// realMain runs the command and returns its exit code.
func realMain(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: regen-cold, serve-warm, serve-cold, serve-proxy or all")
	seed := fs.Uint64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 15, "measured seconds per workload pass")
	trace := fs.Bool("trace", false, "add a traced pass and the per-layer probes")
	asJSON := fs.Bool("json", false, "print only the JSON summary")
	out := fs.String("out", filepath.Join(os.TempDir(), "cxlmem-bench", "trace.json"), "where -trace writes the spans")
	child := fs.String("child", "", "internal: run these comma-separated experiment IDs in-process and report spans")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2, err
	}
	if fs.NArg() > 0 {
		return 2, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *child != "" {
		return childMain(strings.Split(*child, ","), stdout)
	}
	if *seconds <= 0 {
		return 2, fmt.Errorf("-seconds must be positive")
	}
	var chosen []workload
	for _, w := range allWorkloads {
		if *name == "all" || *name == w.name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		return 2, fmt.Errorf("unknown workload %q", *name)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	h, err := newHarness(ctx)
	if err != nil {
		return 2, err
	}
	var reports []*report
	for _, w := range chosen {
		logf("%s: seed %d, %gs", w.name, *seed, *seconds)
		rep, err := runWorkload(h, w, *seed, *seconds, *trace)
		if err != nil {
			return 2, fmt.Errorf("%s: %w", w.name, err)
		}
		reports = append(reports, rep)
	}
	if *trace {
		if err := writeTrace(*out, reports); err != nil {
			return 2, err
		}
		logf("trace written to %s", *out)
	}
	sum, err := summarize(reports, *trace, layerSpecs(h.ids), stdout, !*asJSON)
	if err != nil {
		return 2, err
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return 2, err
	}
	fmt.Fprintln(stdout, string(line))
	if !sum.Correct {
		return 1, errors.New("some outputs were wrong")
	}
	return 0, nil
}

// normalizeArgs rewrites "-trace 0" and "--trace 1" into the "-trace=..."
// form the flag package needs for a boolean flag with a separate value.
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// runWorkload measures one workload: the untraced pass that gives the
// end-to-end metrics, and with trace a traced pass plus the probes.
func runWorkload(h *harness, w workload, seed uint64, seconds float64, trace bool) (*report, error) {
	rep := &report{name: w.name}
	e2e, err := measuredPass(h, w, params{seed: seed, seconds: seconds})
	if err != nil {
		return nil, err
	}
	rep.e2e = e2e
	if !trace {
		return rep, nil
	}
	tr := newTracer()
	root := tr.begin(0, "bench."+w.name, "")
	traced, err := measuredPass(h, w, params{seed: seed, seconds: seconds, tr: tr, root: root})
	if err != nil {
		return nil, err
	}
	if err := runProbes(h, traced, tr, root, seed); err != nil {
		return nil, err
	}
	tr.finish(root, nil)
	rep.traced = traced
	rep.spans = tr.spans
	rep.selfMs = tr.selfTimeMs()
	return rep, nil
}

// measuredPass runs one pass of w with the host's noise recorded beside it.
func measuredPass(h *harness, w workload, p params) (*outcome, error) {
	if err := h.ctx.Err(); err != nil {
		return nil, err
	}
	host, err := startHostSample()
	if err != nil {
		return nil, err
	}
	p.host = host
	o, err := w.run(h, p)
	if err != nil {
		return nil, err
	}
	if err := host.finish(o); err != nil {
		return nil, err
	}
	normalize(o)
	return o, h.ctx.Err()
}

// refNominalMs is what the reference loop takes on a quiet host of the kind
// the benchmark was sized on (2 vCPUs of a shared Xeon).
const refNominalMs = 8

// normalized are the pass's times, reported host-normalized. A traced run
// prints each one's tracing overhead: traced minus untraced.
var normalized = []metricSpec{{"setup_s", "s"}, {"p50_ms", "ms"}, {"cpu_ms_per_op", "ms"}}

// normalize rescales the pass's times to a host whose reference
// loop takes refNominalMs: measured × refNominalMs / host.ref_ms. A host
// slowed by its neighbours slows the loop with it, so the quotient stays
// put where the raw times move by tens of percent between runs. The raw
// values stay in o as raw.<name>.
func normalize(o *outcome) {
	scale := refNominalMs / o.metrics["host.ref_ms"]
	for _, m := range normalized {
		if v, ok := o.metrics[m.name]; ok {
			o.metrics["raw."+m.name] = v
			o.metrics[m.name] = v * scale
		}
	}
}

// summarize prints the metric lines (when lines is set) and builds the
// summary: the end-to-end metrics, or with trace the per-layer ones.
func summarize(reports []*report, trace bool, layers []metricSpec, w io.Writer, lines bool) (*summary, error) {
	sum := &summary{Metrics: map[string]metricValue{}}
	put := func(rep *report, m metricSpec, v float64) {
		key := m.name
		if len(reports) > 1 {
			key = rep.name + "." + m.name
		}
		sum.Metrics[key] = metricValue{Value: v, Unit: m.unit}
	}
	// Lines of the traced pass name the workload "<workload>:traced".
	line := func(label, name string, v float64, unit string) {
		if lines {
			fmt.Fprintf(w, "%s %s %s %s\n", label, name, strconv.FormatFloat(v, 'g', -1, 64), unit)
		}
	}
	for _, rep := range reports {
		for _, m := range endToEnd {
			v, ok := rep.e2e.metrics[m.name]
			if !ok {
				return nil, fmt.Errorf("%s did not measure %s", rep.name, m.name)
			}
			line(rep.name, m.name, v, m.unit)
			if !trace {
				put(rep, m, v)
			}
		}
		for _, list := range [][]metricSpec{validityMetrics, ungatedMetrics} {
			for _, m := range list {
				line(rep.name, m.name, rep.e2e.metrics[m.name], m.unit)
			}
		}
		all := &outcome{}
		all.absorb(rep.e2e)
		if rep.traced != nil {
			all.absorb(rep.traced)
			label := rep.name + ":traced"
			for _, m := range layers {
				v := rep.traced.metrics[m.name] // 0 where the layer does not run in this workload
				line(label, m.name, v, m.unit)
				put(rep, m, v)
			}
			for _, layer := range sortedKeys(rep.selfMs) {
				line(label, "trace.self_ms."+layer, rep.selfMs[layer], "ms")
			}
			for _, m := range normalized {
				line(label, "trace.overhead."+m.name, rep.traced.metrics[m.name]-rep.e2e.metrics[m.name], m.unit)
			}
		}
		line(rep.name, "error_rate", float64(all.failed)/float64(max(all.attempted, 1)), "ratio")
		for _, f := range all.failures {
			logf("%s: FAILED: %s", rep.name, f)
		}
		sum.Attempted += all.attempted
		sum.Failed += all.failed
	}
	sum.Correct = sum.Failed == 0 && sum.Attempted > 0
	return sum, nil
}

// sortedKeys returns m's keys in order.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// logf reports progress on standard error, keeping standard output for the
// metric lines and the summary.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}
