package main

import (
	"fmt"
	"math/rand"
	"time"

	"cxlmem/internal/cache"
	"cxlmem/internal/experiments"
	"cxlmem/internal/memo"
	"cxlmem/internal/mlc"
	"cxlmem/internal/results"
	"cxlmem/internal/sim"
	"cxlmem/internal/topo"
	"cxlmem/internal/workloads/tpptimeline"
)

// metricSpec names a metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of cxlbench or cxlserve sees, reported by
// every workload from its untraced pass. BENCHMARK.json bounds each.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MiB"},
}

// ungatedMetrics are printed beside the end-to-end metrics but gate
// nothing: the raw times behind the normalized ones, and the latencies and
// throughput. CPU steal on the shared host triples serve-warm's and
// serve-proxy's p50 for minutes at a time while their CPU per request does
// not move, so no bound on those latencies would hold (README.md).
var ungatedMetrics = []metricSpec{
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"raw.setup_s", "s"},
	{"raw.p50_ms", "ms"},
	{"raw.cpu_ms_per_op", "ms"},
}

// validityMetrics say whether a pass's numbers can be trusted: how late the
// load generator ran, how many operations it made and lost, and how noisy
// the host was. Every pass prints them; traced passes also report them as
// per-layer metrics.
var validityMetrics = []metricSpec{
	{"loadgen.late_p50_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.ops", "count"},
	{"loadgen.failed", "count"},
	{"host.steal_share", "ratio"},
	{"host.ref_ms", "ms"},
}

// probeSizes are the cache probe's buffer sizes: inside one SNC node's LLC
// slices, around fig5's 32 MB knee, and far past the whole LLC.
var probeSizes = []struct {
	name  string
	bytes int64
}{{"1mb", 1 << 20}, {"32mb", 32 << 20}, {"256mb", 256 << 20}}

// emitIDs are the datasets whose emission the results probe times: the
// ones serve-warm's heaviest paths emit.
var emitIDs = []string{"fig5", "tpp-timeline", "matrix-platform"}

// layerSpecs lists the per-layer metrics a traced pass reports, in output
// order, for the registry's experiment IDs.
func layerSpecs(ids []string) []metricSpec {
	var s []metricSpec
	for _, size := range probeSizes {
		s = append(s, metricSpec{"cache.stream_ns_per_access." + size.name, "ns"})
	}
	s = append(s,
		metricSpec{"cache.access_ns_per_access.32mb", "ns"},
		metricSpec{"cache.sharded_ns_per_access.32mb", "ns"},
		metricSpec{"mlc.buffer_cold_ms", "ms"},
		metricSpec{"mlc.buffer_warm_ms", "ms"},
		metricSpec{"mlc.warmup_share", "ratio"},
		metricSpec{"sim.ns_per_event", "ns"},
		metricSpec{"sim.events_per_run", "count"},
		metricSpec{"sim.tap_ns_per_event", "ns"},
	)
	for _, id := range ids {
		s = append(s, metricSpec{"experiments.cold_ms." + id, "ms"})
	}
	for _, format := range []string{"text", "json", "csv"} {
		for _, id := range emitIDs {
			s = append(s, metricSpec{"results.emit_us." + format + "." + id, "us"})
		}
	}
	s = append(s,
		metricSpec{"memo.hit_ns", "ns"},
		metricSpec{"memo.miss_ns", "ns"},
		metricSpec{"memo.churn_ns", "ns"},
		metricSpec{"cluster.owner_ns", "ns"},
		metricSpec{"memo.dataset_hit_ratio", "ratio"},
		metricSpec{"memo.cell_hit_ratio", "ratio"},
		metricSpec{"memo.evictions", "count"},
		metricSpec{"serve.server_p50_ms.run", "ms"},
		metricSpec{"serve.server_p50_ms.scenario", "ms"},
		metricSpec{"serve.server_p99_ms.run", "ms"},
		metricSpec{"serve.server_p99_ms.scenario", "ms"},
		metricSpec{"serve.client_overhead_ms", "ms"},
		metricSpec{"serve.shed", "count"},
		metricSpec{"serve.queued_peak", "count"},
		metricSpec{"cluster.forwarded_share", "ratio"},
		metricSpec{"cluster.proxy_errors", "count"},
		metricSpec{"cluster.hop_ms", "ms"},
	)
	return append(s, validityMetrics...)
}

// runProbes times calls into each layer's public functions in-process,
// with a span around each, and cross-checks every fast path against its
// reference. They run after the traced pass, with no daemon running.
func runProbes(h *harness, o *outcome, tr *tracer, root int, seed uint64) error {
	id := tr.begin(root, "bench.probes", "")
	defer tr.finish(id, nil)
	rng := rand.New(rand.NewSource(int64(seed)))
	probeCache(o, tr, id, rng)
	probeMLC(o, tr, id)
	probeSim(o, tr, id)
	if err := probeColdIDs(h, o, tr, id); err != nil {
		return err
	}
	if err := probeEmit(h, o, tr, id); err != nil {
		return err
	}
	probeMemo(o, tr, id, rng)
	return probeRing(o, tr, id, rng)
}

// probeAccesses is how many accesses each cache probe stream times, after
// as many untimed warmup accesses.
const probeAccesses = 1 << 19

// probeCache streams the same random addresses through ReadStream,
// ReadStreamSharded (two workers) and scalar Access, each on a fresh SNC-4
// hierarchy with DDR-homed lines (the fig5 shape), and requires all three
// to count the same level for every access.
func probeCache(o *outcome, tr *tracer, parent int, rng *rand.Rand) {
	home := cache.Home{Kind: cache.HomeLocalDDR}
	paths := []struct {
		span   string
		metric string
		feed   func(h *cache.Hierarchy, addrs []uint64, c *cache.LevelCounts)
	}{
		{"cache.ReadStream", "cache.stream_ns_per_access.", func(h *cache.Hierarchy, a []uint64, c *cache.LevelCounts) {
			h.ReadStream(0, a, home, c)
		}},
		{"cache.ReadStreamSharded", "cache.sharded_ns_per_access.", func(h *cache.Hierarchy, a []uint64, c *cache.LevelCounts) {
			h.ReadStreamSharded(0, a, home, c, 2)
		}},
		{"cache.Access", "cache.access_ns_per_access.", func(h *cache.Hierarchy, a []uint64, c *cache.LevelCounts) {
			for _, addr := range a {
				c[h.Access(0, addr, home, false)]++
			}
		}},
	}
	const batch = 1 << 16
	for _, size := range probeSizes {
		lines := size.bytes / cache.LineBytes
		stream := make([]uint64, 2*probeAccesses)
		for i := range stream {
			stream[i] = uint64(rng.Int63n(lines)) * cache.LineBytes
		}
		var want [2]cache.LevelCounts
		for pi, path := range paths {
			h := cache.NewHierarchy(cache.SPRHierConfig(4))
			var got [2]cache.LevelCounts
			var elapsed time.Duration
			for phase := 0; phase < 2; phase++ { // warmup, then timed
				part := stream[phase*probeAccesses : (phase+1)*probeAccesses]
				id := 0
				if phase == 1 {
					id = tr.begin(parent, path.span, "")
				}
				t0 := time.Now()
				for i := 0; i < len(part); i += batch {
					path.feed(h, part[i:min(i+batch, len(part))], &got[phase])
				}
				elapsed = time.Since(t0)
				tr.finish(id, map[string]any{"buffer": size.name, "accesses": len(part)})
			}
			if pi == 0 {
				want = got
			} else {
				o.check(got == want, "%s on the %s stream counted %v, ReadStream %v", path.span, size.name, got, want)
			}
			name := path.metric + size.name
			if pi == 0 || size.name == "32mb" {
				o.metrics[name] = float64(elapsed.Nanoseconds()) / probeAccesses
			}
		}
	}
}

// probeMLC measures fig5's CXL-A 32 MB point cold (warm-state cache off,
// so the warmup is simulated) and warm (the warmup restored from the
// cache), and requires both to measure the same latency.
func probeMLC(o *outcome, tr *tracer, parent int) {
	opts := experiments.DefaultOptions()
	samples := 200000 / 10 // fig5's quick sample count
	point := func(name string) (sim.Time, float64) {
		sys := topo.NewSystem(topo.DefaultConfig())
		id := tr.begin(parent, name, "")
		t0 := time.Now()
		lat := mlc.BufferLatencyOpt(sys, sys.Path("CXL-A"), 32<<20, samples, opts.Seed+3, mlc.StreamOptions{Workers: 1})
		d := ms(time.Since(t0))
		tr.finish(id, map[string]any{"latency_ps": int64(lat)})
		return lat, d
	}
	mlc.ConfigureWarmStates(-1)
	cold, coldMs := point("mlc.BufferLatencyOpt.cold")
	mlc.ConfigureWarmStates(mlc.DefaultWarmStateEntries)
	filled, _ := point("mlc.BufferLatencyOpt.fill")
	hits := mlc.WarmStateStats().Hits
	warm, warmMs := point("mlc.BufferLatencyOpt.warm")
	o.check(mlc.WarmStateStats().Hits == hits+1, "the warm measurement did not restore a warm state")
	o.check(cold == filled && cold == warm, "cold, filling and restored measurements differ: %v %v %v", cold, filled, warm)
	o.metrics["mlc.buffer_cold_ms"] = coldMs
	o.metrics["mlc.buffer_warm_ms"] = warmMs
	o.metrics["mlc.warmup_share"] = (coldMs - warmMs) / coldMs
}

// probeSim times tpptimeline.Run in quick mode, with and without a counting
// tap, and requires the tap to see every event phase and the tapped run to
// give the same timeline. A run takes about 10 ms and the tap costs about
// 1% of it, less than the run-to-run noise, so the tap's cost is the median
// difference over pairs of runs, each pair run in alternating order.
func probeSim(o *outcome, tr *tracer, parent int) {
	cfg := tpptimeline.DefaultConfig().Quick()
	run := func(name string, taps ...sim.Tap) (tpptimeline.Result, float64) {
		sys := topo.NewSystem(topo.DefaultConfig())
		id := tr.begin(parent, name, "")
		t0 := time.Now()
		res := tpptimeline.Run(sys, cfg, "CXL-A", taps...)
		d := float64(time.Since(t0).Nanoseconds())
		tr.finish(id, map[string]any{"events": res.Events.Dispatched})
		return res, d
	}
	var plain, diffs []float64
	var res tpptimeline.Result
	for i := 0; i < 25; i++ {
		var seen uint64
		var tres tpptimeline.Result
		var d, td float64
		if i%2 == 0 {
			res, d = run("sim.Run")
			tres, td = run("sim.Run.tapped", sim.TapFunc(func(sim.TraceEvent) { seen++ }))
		} else {
			tres, td = run("sim.Run.tapped", sim.TapFunc(func(sim.TraceEvent) { seen++ }))
			res, d = run("sim.Run")
		}
		plain = append(plain, d)
		diffs = append(diffs, td-d)
		ev := tres.Events
		o.check(seen == ev.Enqueued+ev.Dispatched+ev.Completed, "the tap saw %d events, the scheduler counted %+v", seen, ev)
		o.check(tres.Accesses == res.Accesses && tres.Promotions == res.Promotions && tres.Demotions == res.Demotions,
			"a tap changed the timeline")
	}
	events := float64(res.Events.Dispatched)
	o.metrics["sim.events_per_run"] = events
	o.metrics["sim.ns_per_event"] = median(plain) / events
	o.metrics["sim.tap_ns_per_event"] = median(diffs) / events
}

// probeColdIDs runs each experiment in a fresh child process, one ID per
// process in registry order, timing experiments.RunDataset from a cold
// start and checking its text against the golden.
func probeColdIDs(h *harness, o *outcome, tr *tracer, parent int) error {
	for _, id := range h.ids {
		rep, epoch, err := h.runChild([]string{id})
		if err != nil {
			return err
		}
		o.check(rep.Text == string(h.golden[id+".txt"])+"\n", "%s in a fresh process differs from its golden", id)
		var runNs, emitNs int64
		for _, s := range rep.Spans {
			switch s.Name {
			case "experiments.RunDataset":
				runNs = s.End - s.Start
			case "results.Emit":
				emitNs = s.End - s.Start
			}
		}
		o.metrics["experiments.cold_ms."+id] = float64(runNs-emitNs) / 1e6
		tr.graft(parent, epoch, rep.Spans)
	}
	return nil
}

// probeEmit times results.Emit for each format over the datasets of
// emitIDs, checking every emission against its golden where one exists.
func probeEmit(h *harness, o *outcome, tr *tracer, parent int) error {
	opts := experiments.DefaultOptions()
	opts.Quick, opts.Parallel = true, 1
	for _, id := range emitIDs {
		d, err := experiments.RunDataset(id, opts)
		if err != nil {
			return err
		}
		for _, format := range []string{"text", "json", "csv"} {
			span := tr.begin(parent, "results.Emit", "")
			var out string
			var n int
			t0 := time.Now()
			for n < 3 || time.Since(t0) < 20*time.Millisecond {
				if out, err = results.Emit(d, format); err != nil {
					return err
				}
				n++
			}
			per := float64(time.Since(t0).Nanoseconds()) / float64(n)
			tr.finish(span, map[string]any{"id": id, "format": format, "calls": n})
			if g, ok := h.golden[id+"."+goldenExt[format]]; ok {
				o.check(out == string(g), "%s emitted as %s differs from its golden", id, format)
			}
			o.metrics["results.emit_us."+format+"."+id] = per / 1e3
		}
	}
	return nil
}

// probeMemo times memo.Cache.Do: hits on one resident key, misses on fresh
// keys, and churn through a 64-entry budget over a 640-key space.
func probeMemo(o *outcome, tr *tracer, parent int, rng *rand.Rand) {
	const n = 1 << 17
	compute := func() (any, error) { return 1, nil }
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("experiment|k%d|quick=true|seed=%d", i, i)
	}
	churn := make([]string, n)
	for i := range churn {
		churn[i] = keys[rng.Intn(640)]
	}
	timeDo := func(name string, c *memo.Cache, keys []string) float64 {
		id := tr.begin(parent, name, "")
		t0 := time.Now()
		for _, k := range keys {
			_, _ = c.Do(k, compute)
		}
		per := float64(time.Since(t0).Nanoseconds()) / float64(len(keys))
		tr.finish(id, map[string]any{"calls": len(keys)})
		return per
	}
	hot := memo.NewCache()
	hotKeys := make([]string, n)
	for i := range hotKeys {
		hotKeys[i] = keys[0]
	}
	_, _ = hot.Do(keys[0], compute)
	o.metrics["memo.hit_ns"] = timeDo("memo.Do.hit", hot, hotKeys)
	o.check(hot.Stats().Hits == n && hot.Stats().Misses == 1, "memo hit probe counted %+v", hot.Stats())
	cold := memo.NewCache()
	o.metrics["memo.miss_ns"] = timeDo("memo.Do.miss", cold, keys)
	o.check(cold.Stats().Misses == n, "memo miss probe counted %+v", cold.Stats())
	bounded := memo.NewCacheWith(memo.CacheConfig{MaxEntries: 64})
	o.metrics["memo.churn_ns"] = timeDo("memo.Do.churn", bounded, churn)
	st := bounded.Stats()
	o.check(st.Size <= 64 && st.Hits+st.Misses == n && st.Evictions > 0, "memo churn probe counted %+v", st)
}

// probeRing times cluster.Ring.Owner over serve-proxy's ring for the warm
// mix's keys and as many synthetic ones, and requires Owner and Owns to
// agree.
func probeRing(o *outcome, tr *tracer, parent int, rng *rand.Rand) error {
	ring, err := replicaRing(replicaAAddr, "http://"+replicaAAddr+",http://"+replicaBAddr)
	if err != nil {
		return err
	}
	var keys []string
	for _, path := range warmMix {
		q, err := parseQuery(path)
		if err != nil {
			return err
		}
		key, err := q.memoKey()
		if err != nil {
			return err
		}
		keys = append(keys, key)
	}
	for i := 0; i < 1000; i++ {
		keys = append(keys, fmt.Sprintf("experiment|fig7|quick=true|fastwarm=false|seed=%d|platform=|fidelity=", rng.Int63()))
	}
	for _, k := range keys {
		o.check(ring.Owns(k) == (ring.Owner(k) == ring.Self()), "Owner and Owns disagree on %s", k)
	}
	const n = 1 << 18
	id := tr.begin(parent, "cluster.Owner", "")
	t0 := time.Now()
	owned := 0
	for i := 0; i < n; i++ {
		if ring.Owner(keys[i%len(keys)]) == ring.Self() {
			owned++
		}
	}
	o.metrics["cluster.owner_ns"] = float64(time.Since(t0).Nanoseconds()) / n
	tr.finish(id, map[string]any{"calls": n, "owned": owned})
	return nil
}
