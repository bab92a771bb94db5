// Command cxlbench regenerates the paper's tables and figures from the
// simulated system.
//
// Usage:
//
//	cxlbench -list                    # show available experiment IDs
//	cxlbench -run fig3                # regenerate one table/figure
//	cxlbench -run all                 # regenerate everything, concurrently
//	cxlbench -run fig13 -quick        # reduced sample counts
//	cxlbench -run all -parallel 4     # bound the sweep worker pool
//	cxlbench -run fig5 -fidelity auto # analytic estimate off-knee, exact at the knee
//	cxlbench -run fig13 -cpuprofile p # write a pprof CPU profile
//
// Beyond the paper's fixed figures, -scenario evaluates arbitrary cells of
// the workload x policy x size matrix from one-line specs (see
// internal/workloads and the README cheat sheet):
//
//	cxlbench -scenario 'ycsb:readmostly/policy=weighted:85,15/size=4G'
//	cxlbench -scenario all            # the full matrix cross product
//	cxlbench -scenario list           # registered workloads + their knobs
//
// The machine side of a cell is a registered platform profile. -platform
// selects the default platform for -scenario runs (a spec's own platform=
// key wins), and -platform list shows the registry:
//
//	cxlbench -platform list
//	cxlbench -platform x16-quad -scenario 'dlrm/policy=interleave'
//	cxlbench -scenario 'kvstore/platform=fpga-degraded'
//
// Every result is a typed dataset rendered by a pluggable emitter; -format
// selects the rendering for -run and -scenario alike (see also the cxlserve
// daemon, which serves the same datasets over HTTP):
//
//	cxlbench -run fig5 -format json   # machine-readable, full precision
//	cxlbench -run matrix-apps -format csv
//	cxlbench -scenario 'dlrm/policy=cxl:63' -format json
//
// With -remote, scenario cells are not computed locally: they are sharded
// across a cxlserve replica fleet by canonical cell key (the coordinator
// fan-out of DESIGN.md §14) and merged byte-identically to local execution,
// so a warm fleet answers the full matrix without local compute. The
// replica list takes cxlserve's -peers syntax:
//
//	cxlbench -scenario all -remote host1:8375,host2:8375
//	cxlbench -scenario 'dlrm/policy=cxl:63' -remote host1:8375,host2:8375
//
// A single experiment fans its independent operating points across
// -parallel workers (default: all CPUs). -run all spends the same budget one
// level up: whole experiments run concurrently on -parallel workers, each
// sweeping serially, so total concurrency never exceeds the requested
// worker count. Output is byte-identical for every -parallel value: results
// are ordered by operating point, and tables print in registry order. A
// stray argument, a negative -parallel or an unknown -format exits 2 with
// the usage text before anything runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"slices"
	"strings"

	"cxlmem"
	"cxlmem/internal/pool"
)

func main() {
	list := flag.Bool("list", false, "list available experiments")
	run := flag.String("run", "", "experiment ID to run, or 'all'")
	scenario := flag.String("scenario", "", "scenario spec to evaluate, 'all' for the full matrix, or 'list'")
	platform := flag.String("platform", "", "platform profile for -scenario runs, or 'list'")
	quick := flag.Bool("quick", false, "reduced sample counts")
	parallel := flag.Int("parallel", 0, "sweep worker count (0 = all CPUs)")
	seed := flag.Uint64("seed", 0, "override the experiment seed (0 = default)")
	fidelity := flag.String("fidelity", "", "measurement tier for fig5/ablation-llc: exact (default), auto, fast")
	format := flag.String("format", "", "output format for -run/-scenario: text (default), json, csv")
	remote := flag.String("remote", "", "comma-separated cxlserve replica URLs: dispatch -scenario cells across the fleet instead of computing locally")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	flag.Parse()
	if flag.NArg() > 0 {
		// flag stops at the first non-flag argument, so everything after a
		// stray word (say -quick true) would be dropped silently.
		usageError("unexpected argument %q", flag.Arg(0))
	}
	if *parallel < 0 {
		usageError("-parallel must not be negative, got %d", *parallel)
	}
	if *format != "" && !slices.Contains(cxlmem.Formats(), *format) {
		usageError("unknown -format %q (want %s)", *format, strings.Join(cxlmem.Formats(), ", "))
	}

	if *remote != "" && (*scenario == "" || *scenario == "list") {
		fail(fmt.Errorf("-remote dispatches scenario cells; pair it with -scenario SPEC or -scenario all"))
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	cfg := cxlmem.RunConfig{Quick: *quick, Parallel: *parallel, Seed: *seed, Fidelity: *fidelity}
	if *platform != "list" {
		cfg.Platform = *platform
	}
	var d *cxlmem.Dataset
	var err error
	switch {
	case *platform == "list":
		for _, p := range cxlmem.Platforms() {
			fmt.Printf("%-14s %s\n               devices: %s\n", p.Name, p.Desc, strings.Join(p.Devices, ", "))
		}
		fmt.Println("\ncatalog (EXPERIMENTS.md form):")
		fmt.Print(cxlmem.PlatformCatalog())
	case *list:
		for _, e := range cxlmem.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Desc)
		}
	case *run == "all":
		err = runAll(cfg, *format)
	case *run != "":
		d, err = cxlmem.RunDataset(*run, cfg)
	case *scenario == "list":
		for _, s := range cxlmem.ScenarioWorkloads() {
			fmt.Printf("%-8s %s\n         variants: %s\n", s.Name, s.Desc, strings.Join(s.Variants, ", "))
		}
		fmt.Println("\ncatalog (EXPERIMENTS.md form):")
		fmt.Print(cxlmem.ScenarioCatalog())
	case *scenario == "all" && *remote != "":
		// Sharded across a cxlserve fleet by canonical cell key: the bytes
		// are the local run's; only where the cells compute changes.
		d, err = cxlmem.RunRemoteScenarioMatrixDataset(*remote, cfg)
	case *scenario == "all":
		d, err = cxlmem.RunScenarioMatrixDataset(cfg)
	case *scenario != "" && *remote != "":
		d, err = cxlmem.RunRemoteScenarioDataset(*scenario, *remote, cfg)
	case *scenario != "":
		d, err = cxlmem.RunScenarioDataset(*scenario, cfg)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err == nil && d != nil {
		err = emit(d, *format)
	}
	if err != nil {
		pprof.StopCPUProfile()
		fail(err)
	}
}

// runAll regenerates every experiment through pool.Run and prints the
// datasets in registry order as they complete. The -parallel budget moves
// to the experiment level: each experiment sweeps serially so the two pools
// cannot multiply. The first failed experiment stops the claims; the ones
// before it in registry order were claimed first, so each of them finishes
// and prints before the error returns.
func runAll(cfg cxlmem.RunConfig, format string) error {
	infos := cxlmem.Experiments()
	type result struct {
		d    *cxlmem.Dataset
		err  error
		done chan struct{}
	}
	results := make([]result, len(infos))
	for i := range results {
		results[i].done = make(chan struct{})
	}
	workers := cfg.Parallel
	cfg.Parallel = 1
	go pool.Run(context.Background(), workers, len(infos), func(_ context.Context, i int) error {
		r := &results[i]
		r.d, r.err = cxlmem.RunDataset(infos[i].ID, cfg)
		close(r.done)
		return r.err
	})
	for i := range infos {
		<-results[i].done
		if results[i].err != nil {
			return results[i].err
		}
		if err := emit(results[i].d, format); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

// emit prints one dataset in the -format checked at startup; every run
// renders through it.
func emit(d *cxlmem.Dataset, format string) error {
	out, err := cxlmem.Emit(d, format)
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}

// usageError reports a bad command line and exits 2 with the usage text.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cxlbench: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "cxlbench:", err)
	os.Exit(1)
}
