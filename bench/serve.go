package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"cxlmem/internal/cluster"
	"cxlmem/internal/stats"
)

// warmMix is the serve-warm and serve-proxy traffic: the eight paths of
// scripts/loadtest's default mix plus the three heaviest emissions — fig5
// as json, the 91 KB tpp-timeline json, and matrix-platform as csv.
var warmMix = []string{
	"/v1/run?id=table2",
	"/v1/run?id=fig4a&format=text",
	"/v1/run?id=fig4a&format=csv",
	"/v1/run?id=matrix-size",
	"/v1/run?id=table3",
	"/v1/scenario?spec=fluid/policy=interleave/size=64M",
	"/v1/scenario?spec=kvstore/policy=cxl",
	"/v1/scenario?spec=dlrm/policy=cxl:63",
	"/v1/run?id=fig5&format=json",
	"/v1/run?id=tpp-timeline",
	"/v1/run?id=matrix-platform&format=csv",
}

// Loopback addresses. The proxy ring's ownership hashes the replica URLs,
// so serve-proxy's ports are fixed to keep the forwarded set the same on
// every run.
const (
	singleAddr   = "127.0.0.1:18374"
	replicaAAddr = "127.0.0.1:18375"
	replicaBAddr = "127.0.0.1:18376"
)

// windows is how many equal windows a serve pass's load is cut into. The
// host's reference loop runs between them (see hostSample), and p50_ms is
// the median of the open loops' window medians.
const windows = 10

// mixRate is serve-warm's and serve-proxy's arrival rate per second. It
// leaves the two vCPUs idle most of the time: at 2000/s the daemon, the
// proxy replica and the load generator saturate them whenever neighbours
// slow the host, and latencies then jump tenfold from one run to the next.
const mixRate = 500

// daemonFlags are the flags every daemon runs with: the golden options.
var daemonFlags = []string{"-quick", "-parallel", "1"}

// fleet is the set of daemons one pass talks to; the first is the entry
// point the load goes to.
type fleet []*daemon

func (f fleet) stop() error {
	var first error
	for _, d := range f {
		if err := d.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// startFleet spawns one daemon per address with the flags, waits for all
// of them to be healthy and primes the entry point with the paths (checked
// against refs). It returns the time all of that took.
func (h *harness) startFleet(o *outcome, addrs []string, flags []string, prime []string, refs [][]byte) (fleet, time.Duration, error) {
	t0 := time.Now()
	var f fleet
	for _, addr := range addrs {
		d, err := h.startDaemon(addr, flags...)
		if err != nil {
			_ = f.stop()
			return nil, 0, err
		}
		f = append(f, d)
	}
	for _, d := range f {
		if err := d.waitHealthy(); err != nil {
			_ = f.stop()
			return nil, 0, err
		}
	}
	if len(prime) > 0 {
		client := newLoadClient()
		reqs := make([]request, len(prime))
		for i := range reqs {
			reqs[i].path = i
		}
		openLoop(h.ctx, client, f[0].base, prime, reqs, func(path, status int, body []byte) bool {
			return status == http.StatusOK && string(body) == string(refs[path])
		})
		client.CloseIdleConnections()
		for _, r := range reqs {
			o.check(r.ok, "priming %s: status %d, %d bytes, %v", prime[r.path], r.status, r.bytes, r.err)
		}
	}
	return f, time.Since(t0), nil
}

// setUp starts the fleet setupReps times, stopping all but the last, and
// records the median set-up time as setup_s.
func (h *harness) setUp(o *outcome, p params, addrs, flags, prime []string, refs [][]byte) (fleet, error) {
	var secs []float64
	for {
		id := p.tr.begin(p.root, "bench.setup", "")
		f, d, err := h.startFleet(o, addrs, flags, prime, refs)
		p.tr.finish(id, nil)
		if err != nil {
			return nil, err
		}
		secs = append(secs, d.Seconds())
		if len(secs) == setupReps {
			o.metrics["setup_s"] = median(secs)
			return f, nil
		}
		o.check(f.stop() == nil, "set-up daemon did not drain cleanly")
	}
}

// runServeWarm is a warm daemon serving already-computed results: after
// priming, an open loop of Poisson arrivals over warmMix. Memo hits, the
// emitters and the HTTP path do the work; the simulator does none.
func runServeWarm(h *harness, p params) (*outcome, error) {
	return runMix(h, p, []string{singleAddr})
}

// runServeProxy is serve-warm's traffic sent to replica A of a two-replica
// -peers ring, so the keys B owns take one proxy hop. It is the only
// workload that runs internal/cluster and the serve proxy; set beside
// serve-warm it gives the cost of the hop.
func runServeProxy(h *harness, p params) (*outcome, error) {
	return runMix(h, p, []string{replicaAAddr, replicaBAddr})
}

// runMix runs the open-loop warm mix against one daemon or a ring of them.
func runMix(h *harness, p params, addrs []string) (*outcome, error) {
	o := newOutcome()
	refs, err := h.references(warmMix)
	if err != nil {
		return nil, err
	}
	flags := daemonFlags
	var ring *cluster.Ring
	if len(addrs) > 1 {
		peers := "http://" + strings.Join(addrs, ",http://")
		flags = append(append([]string{}, daemonFlags...), "-peers", peers)
		if ring, err = replicaRing(addrs[0], peers); err != nil {
			return nil, err
		}
	}
	forwarded := make([]bool, len(warmMix))
	if ring != nil {
		for i, path := range warmMix {
			q, err := parseQuery(path)
			if err != nil {
				return nil, err
			}
			key, err := q.memoKey()
			if err != nil {
				return nil, err
			}
			forwarded[i] = !ring.Owns(key)
		}
	}

	f, err := h.setUp(o, p, addrs, flags, warmMix, refs)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	before, cpu0, err := fleetState(f)
	if err != nil {
		return nil, err
	}
	client := newLoadClient()
	stopSampler := sampleQueued(p.tr != nil, f[0].base)
	rng := rand.New(rand.NewSource(int64(p.seed)))
	winDur := time.Duration(p.seconds * float64(time.Second) / windows)
	var wins []window
	for w := 0; w < windows && h.ctx.Err() == nil; w++ {
		reqs := poisson(rng, mixRate, winDur, len(warmMix))
		start := openLoop(h.ctx, client, f[0].base, warmMix, reqs, func(path, status int, body []byte) bool {
			return status == http.StatusOK && string(body) == string(refs[path])
		})
		wins = append(wins, window{start: start, reqs: reqs})
		p.host.sample()
	}
	queuedPeak := stopSampler()
	client.CloseIdleConnections()
	after, cpu1, err := fleetState(f)
	if err != nil {
		return nil, err
	}
	if err := h.ctx.Err(); err != nil {
		return nil, err
	}

	var p50s, all, lates []float64
	var fwdLat, localLat, runLat []float64
	var okCount, total, predicted int
	var busy time.Duration
	for _, win := range wins {
		var lats []float64
		var last time.Duration
		for _, r := range win.reqs {
			total++
			if !o.check(r.done && r.ok, "%s: status %d, %d bytes, %v", warmMix[r.path], r.status, r.bytes, r.err) {
				continue
			}
			okCount++
			lat := ms(r.end - r.due)
			lats = append(lats, lat)
			all = append(all, lat)
			lates = append(lates, ms(r.sent-r.due))
			last = max(last, r.end)
			if forwarded[r.path] {
				predicted++
				fwdLat = append(fwdLat, lat)
			} else {
				localLat = append(localLat, lat)
			}
			if strings.HasPrefix(warmMix[r.path], "/v1/run") {
				runLat = append(runLat, lat)
			}
		}
		busy += max(last, winDur)
		if len(lats) > 0 {
			p50s = append(p50s, stats.Percentile(lats, 50))
		}
	}
	if okCount == 0 {
		return o, nil
	}
	o.metrics["p50_ms"] = median(p50s)
	o.metrics["tail_ms"] = stats.Percentile(all, 99)
	o.metrics["throughput_rps"] = float64(okCount) / busy.Seconds()
	o.metrics["cpu_ms_per_op"] = ms(cpu1-cpu0) / float64(total)
	o.metrics["loadgen.late_p50_ms"] = stats.Percentile(lates, 50)
	o.metrics["loadgen.late_p99_ms"] = stats.Percentile(lates, 99)
	o.metrics["serve.queued_peak"] = queuedPeak
	serveLayerMetrics(o, before, after)
	o.metrics["serve.client_overhead_ms"] = pct(runLat, 50) - o.metrics["serve.server_p50_ms.run"]
	if ring != nil {
		// The ring's prediction must match what replica A actually did.
		fwd := delta(before[0], after[0], `cxlserve_proxy_requests_total{result="forwarded"}`)
		errs := delta(before[0], after[0], `cxlserve_proxy_requests_total{result="error"}`)
		recv := delta(before[1], after[1], `cxlserve_proxy_requests_total{result="received"}`)
		o.check(fwd == float64(predicted) && recv == fwd, "ring predicted %d forwarded requests; A forwarded %g, B received %g", predicted, fwd, recv)
		o.check(errs == 0, "%g proxy errors", errs)
		o.metrics["cluster.forwarded_share"] = fwd / float64(total)
		o.metrics["cluster.proxy_errors"] = errs
		o.metrics["cluster.hop_ms"] = pct(fwdLat, 50) - pct(localLat, 50)
	}
	peak, err := fleetPeakRSS(f)
	if err != nil {
		return nil, err
	}
	o.metrics["peak_rss_mb"] = peak
	o.metrics["loadgen.ops"] = float64(total)
	o.metrics["loadgen.failed"] = float64(total - okCount)
	o.check(f.stop() == nil, "daemon did not drain cleanly")
	addRequestSpans(p, warmMix, wins, forwarded)
	return o, nil
}

// replicaRing is the ring replica A builds from its flags.
func replicaRing(self, peers string) (*cluster.Ring, error) {
	selfURL, err := cluster.NormalizeAddr("http://" + self)
	if err != nil {
		return nil, err
	}
	list, err := cluster.ParsePeerList(peers)
	if err != nil {
		return nil, err
	}
	return cluster.NewRing(selfURL, list)
}

// coldFamilies are serve-cold's four request families, each taking a seed.
// tpp-timeline misses cost 90–190 ms on the event engine, fig7 about 25 ms,
// fig6b about 5 ms and the scenario about 1 ms; fig5 stays out because one
// miss costs about 0.7 s.
var coldFamilies = []string{
	"/v1/run?id=tpp-timeline&seed=%d",
	"/v1/run?id=fig7&seed=%d",
	"/v1/run?id=fig6b&seed=%d",
	"/v1/scenario?spec=kvstore/policy=cxl/seed=%d",
}

// coldBlock is the family mix of every five consecutive serve-cold requests
// (indices into coldFamilies), shuffled within the block. Fixed shares keep
// every window's mix the same, and doubling fig6b puts the median inside
// its band: with four equal shares it sits on the cliff between fig6b's
// 5 ms and fig7's 25 ms, and moves by a third when the shares wobble.
var coldBlock = []int{0, 1, 2, 2, 3}

// runServeCold is results nobody has computed yet: a daemon with a
// 32-entry memo budget, no priming, and a closed loop of two clients
// drawing from 4 families × 64 seeds. It drives the write side of the memo
// caches — misses, inserts, evictions, joins — and the event engine.
func runServeCold(h *harness, p params) (*outcome, error) {
	o := newOutcome()
	rng := rand.New(rand.NewSource(int64(p.seed)))
	seen := map[int]bool{}
	var pool []int
	for len(pool) < 64 {
		if s := 2 + rng.Intn(1<<20); !seen[s] {
			seen[s] = true
			pool = append(pool, s)
		}
	}
	var paths []string
	for _, fam := range coldFamilies {
		for _, s := range pool {
			paths = append(paths, fmt.Sprintf(fam, s))
		}
	}
	// Enough blocks that no window runs out; each window starts on a block.
	seq := make([]int, 0, windows*400*len(coldBlock))
	block := append([]int{}, coldBlock...)
	for len(seq) < cap(seq) {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, fam := range block {
			seq = append(seq, fam*len(pool)+rng.Intn(len(pool)))
		}
	}

	f, err := h.setUp(o, p, []string{singleAddr}, append(append([]string{}, daemonFlags...), "-cache-entries", "32"), nil, nil)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	before, cpu0, err := fleetState(f)
	if err != nil {
		return nil, err
	}
	client := newLoadClient()
	stopSampler := sampleQueued(p.tr != nil, f[0].base)
	var wins []window
	chunk := len(seq) / windows
	for w := 0; w < windows && h.ctx.Err() == nil; w++ {
		start, ran := closedLoop(h.ctx, client, f[0].base, paths, seq[w*chunk:(w+1)*chunk], time.Duration(p.seconds*float64(time.Second)/windows), func(r *request, body []byte) {
			r.digest = sha256.Sum256(body)
			r.ok = r.status == http.StatusOK
		})
		wins = append(wins, window{start: start, reqs: ran})
		p.host.sample()
	}
	queuedPeak := stopSampler()
	client.CloseIdleConnections()
	after, cpu1, err := fleetState(f)
	if err != nil {
		return nil, err
	}
	if err := h.ctx.Err(); err != nil {
		return nil, err
	}
	peak, err := fleetPeakRSS(f)
	if err != nil {
		return nil, err
	}
	o.check(f.stop() == nil, "daemon did not drain cleanly")

	// Every answer for one key must be the same bytes, and a seed-chosen
	// quarter of the keys is checked against the in-process reference.
	digests := map[int][32]byte{}
	var distinct []int
	total := 0
	for _, win := range wins {
		for _, r := range win.reqs {
			total++
			if _, seen := digests[r.path]; r.ok && !seen {
				digests[r.path] = r.digest
				distinct = append(distinct, r.path)
			}
		}
	}
	sort.Ints(distinct)
	rng.Shuffle(len(distinct), func(i, j int) { distinct[i], distinct[j] = distinct[j], distinct[i] })
	sample := distinct[:(len(distinct)+3)/4]
	samplePaths := make([]string, len(sample))
	for i, pi := range sample {
		samplePaths[i] = paths[pi]
	}
	checkID := p.tr.begin(p.root, "bench.check", "")
	refs, err := h.references(samplePaths)
	p.tr.finish(checkID, map[string]any{"keys": len(sample)})
	if err != nil {
		return nil, err
	}
	want := map[int][32]byte{}
	for i, pi := range sample {
		want[pi] = sha256.Sum256(refs[i])
	}
	var lats, runLat []float64
	var okCount int
	var busy time.Duration
	for _, win := range wins {
		var last time.Duration
		for _, r := range win.reqs {
			ok := r.ok && r.digest == digests[r.path]
			if w, sampled := want[r.path]; sampled {
				ok = ok && r.digest == w
			}
			if !o.check(ok, "%s: status %d, %d bytes, %v", paths[r.path], r.status, r.bytes, r.err) {
				continue
			}
			okCount++
			lat := ms(r.end - r.sent)
			lats = append(lats, lat)
			if strings.HasPrefix(paths[r.path], "/v1/run") {
				runLat = append(runLat, lat)
			}
			last = max(last, r.end)
		}
		busy += last
	}
	if okCount == 0 {
		return o, nil
	}
	o.metrics["p50_ms"] = stats.Percentile(lats, 50)
	o.metrics["tail_ms"] = stats.Percentile(lats, 95)
	o.metrics["throughput_rps"] = float64(okCount) / busy.Seconds()
	o.metrics["cpu_ms_per_op"] = ms(cpu1-cpu0) / float64(total)
	o.metrics["peak_rss_mb"] = peak
	o.metrics["loadgen.ops"] = float64(total)
	o.metrics["loadgen.failed"] = float64(total - okCount)
	o.metrics["serve.queued_peak"] = queuedPeak
	serveLayerMetrics(o, before, after)
	o.metrics["serve.client_overhead_ms"] = pct(runLat, 50) - o.metrics["serve.server_p50_ms.run"]
	addRequestSpans(p, paths, wins, nil)
	return o, nil
}

// fleetState scrapes every daemon's /metrics and sums their CPU time.
func fleetState(f fleet) ([]map[string]float64, time.Duration, error) {
	client := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	var all []map[string]float64
	var cpu time.Duration
	for _, d := range f {
		m, err := scrape(client, d.base)
		if err != nil {
			return nil, 0, err
		}
		c, err := d.cpuTime()
		if err != nil {
			return nil, 0, err
		}
		all = append(all, m)
		cpu += c
	}
	return all, cpu, nil
}

// fleetPeakRSS is the largest resident-set high-water mark in the fleet.
func fleetPeakRSS(f fleet) (float64, error) {
	var peak float64
	for _, d := range f {
		v, err := d.peakRSSMB()
		if err != nil {
			return 0, err
		}
		peak = max(peak, v)
	}
	return peak, nil
}

// serveLayerMetrics derives the memo and admission metrics from the
// /metrics scrapes around the load, summed over the fleet. The server-side
// latency quantiles are cxlserve's own histogram since start (set-up
// requests included), read from the entry point.
func serveLayerMetrics(o *outcome, before, after []map[string]float64) {
	sum := func(series string) float64 {
		var s float64
		for i := range after {
			s += delta(before[i], after[i], series)
		}
		return s
	}
	for _, c := range []string{"dataset", "cell"} {
		hits := sum(fmt.Sprintf("cxlserve_cache_hits_total{cache=%q}", c))
		misses := sum(fmt.Sprintf("cxlserve_cache_misses_total{cache=%q}", c))
		o.metrics["memo."+c+"_hit_ratio"] = hits / math.Max(hits+misses, 1)
	}
	o.metrics["memo.evictions"] = sum(`cxlserve_cache_evictions_total{cache="dataset"}`) + sum(`cxlserve_cache_evictions_total{cache="cell"}`)
	o.metrics["serve.shed"] = sum("cxlserve_shed_total")
	for _, ep := range []string{"run", "scenario"} {
		for _, q := range []struct {
			name, label string
		}{{"p50", "0.5"}, {"p99", "0.99"}} {
			series := fmt.Sprintf(`cxlserve_request_latency_seconds{endpoint="/v1/%s",quantile="%s"}`, ep, q.label)
			o.metrics["serve.server_"+q.name+"_ms."+ep] = after[0][series] * 1000
		}
	}
}

// sampleQueued polls the daemon's cxlserve_queued gauge ten times a second
// over its own connection while the load runs — in traced passes only, so
// untraced passes keep to the two load connections. The returned function
// stops the sampler and returns the peak.
func sampleQueued(on bool, base string) func() float64 {
	if !on {
		return func() float64 { return 0 }
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var peak float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1}}
		defer client.CloseIdleConnections()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if m, err := scrape(client, base); err == nil {
					peak = max(peak, m["cxlserve_queued"])
				}
			}
		}
	}()
	return func() float64 {
		close(stop)
		wg.Wait()
		return peak
	}
}

// window is one stretch of load; the reference loop runs between windows.
// Request times are offsets from start.
type window struct {
	start time.Time
	reqs  []request
}

// addRequestSpans records one loadgen.window span per window holding one
// loadgen.request span per request.
func addRequestSpans(p params, paths []string, wins []window, forwarded []bool) {
	if p.tr == nil {
		return
	}
	for w, win := range wins {
		var last time.Duration
		for _, r := range win.reqs {
			last = max(last, r.end)
		}
		parent := p.tr.add(p.root, "loadgen.window", "", win.start, win.start.Add(last), map[string]any{"window": w})
		for i, r := range win.reqs {
			p.tr.add(parent, "loadgen.request", fmt.Sprintf("w%d-r%d", w, i), win.start.Add(r.sent), win.start.Add(r.end), map[string]any{
				"path": paths[r.path], "status": r.status, "bytes": r.bytes,
				"forwarded": forwarded != nil && forwarded[r.path],
				"due_ns":    r.due.Nanoseconds(),
			})
		}
	}
}

// delta is a series' growth between two scrapes.
func delta(before, after map[string]float64, series string) float64 {
	return after[series] - before[series]
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// pct is stats.Percentile that answers 0 for no samples.
func pct(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return stats.Percentile(v, p)
}

// median is the 50th percentile.
func median(v []float64) float64 { return pct(v, 50) }
