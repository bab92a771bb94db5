package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cxlmem/internal/experiments"
	"cxlmem/internal/results"
	"cxlmem/internal/sim"
	"cxlmem/internal/topo"
	"cxlmem/internal/workloads/tpptimeline"
)

// traceBody decodes one /v1/trace response.
func traceBody(t *testing.T, body string) traceResponse {
	t.Helper()
	var resp traceResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("trace body does not decode: %v\n%s", err, body)
	}
	return resp
}

// lastSeed is the last seed freshSeed handed out.
var lastSeed = 4000

// freshSeed returns a seed no earlier request in this test process used, so
// a tpp-timeline run with it is never a memo hit, even under -count.
func freshSeed() int {
	lastSeed++
	return lastSeed
}

// quickTimeline is the tpp-timeline config the workload adapter builds in
// quick mode: Quick's 2048 pages, but the adapter's 200 epochs (1 s), not
// Quick's 30.
func quickTimeline(seed int) tpptimeline.Config {
	cfg := tpptimeline.DefaultConfig().Quick()
	cfg.Epochs, cfg.Seed = 200, uint64(seed)
	return cfg
}

// runTrace runs cfg once with a ring of the given capacity attached,
// outside any server, cache or adapter.
func runTrace(cfg tpptimeline.Config, capacity int) (tpptimeline.Result, *sim.TraceRing) {
	ring := sim.NewTraceRing(capacity)
	res := tpptimeline.Run(topo.NewSystem(topo.DefaultConfig()), cfg, "CXL-A", ring)
	return res, ring
}

// checkReplay fails unless a /v1/trace body is exactly ring's events and
// res's event counts.
func checkReplay(t *testing.T, got traceResponse, res tpptimeline.Result, ring *sim.TraceRing) {
	t.Helper()
	want := ring.Snapshot()
	if len(got.Events) != len(want) || got.Buffered != len(want) || got.Capacity != ring.Cap() {
		t.Fatalf("replay has %d events (buffered %d, capacity %d), the run's ring %d of %d",
			len(got.Events), got.Buffered, got.Capacity, len(want), ring.Cap())
	}
	for i, te := range want {
		w := traceEventJSON{Phase: te.Phase.String(), Seq: te.Seq, AtPS: int64(te.At), NowPS: int64(te.Now), Actor: te.Actor, Kind: te.Kind}
		if got.Events[i] != w {
			t.Fatalf("event %d = %+v, the run's ring has %+v", i, got.Events[i], w)
		}
	}
	if ev := res.Events; got.Enqueued != ev.Enqueued || got.Dispatched != ev.Dispatched || got.Completed != ev.Completed {
		t.Fatalf("totals %d/%d/%d, the run's event counts %+v", got.Enqueued, got.Dispatched, got.Completed, ev)
	}
}

// TestTraceEndpoint replays a tpp-timeline run through /v1/trace with no
// /v1/run before it: the default ring holds 4096 phase-consistent,
// time-ordered events, a second replay is byte-identical, limit= keeps the
// run's last events while the totals still count the whole run, and the
// replay honors the request deadline.
func TestTraceEndpoint(t *testing.T) {
	ts := testServer(t)
	path := fmt.Sprintf("/v1/trace?id=tpp-timeline&seed=%d", freshSeed())
	status, ctype, body := get(t, ts, path)
	if status != http.StatusOK || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("status %d, content-type %s: %s", status, ctype, body)
	}
	resp := traceBody(t, body)
	if resp.Enqueued == 0 || resp.Dispatched == 0 || resp.Completed == 0 {
		t.Fatalf("totals = %+v, want all phases non-zero", resp)
	}
	if resp.Capacity != defaultTraceLimit || resp.Buffered != defaultTraceLimit || len(resp.Events) != resp.Buffered {
		t.Fatalf("capacity %d, buffered %d, %d events; want a full ring of %d",
			resp.Capacity, resp.Buffered, len(resp.Events), defaultTraceLimit)
	}
	for i, ev := range resp.Events {
		if ev.Phase != "enqueue" && ev.Phase != "dispatch" && ev.Phase != "complete" {
			t.Fatalf("event %d has phase %q", i, ev.Phase)
		}
		if ev.Actor == "" || ev.Kind == "" {
			t.Fatalf("event %d lacks actor/kind: %+v", i, ev)
		}
		if i > 0 && ev.NowPS < resp.Events[i-1].NowPS {
			t.Fatalf("observation time goes backwards at event %d", i)
		}
	}

	// The scheduler is deterministic, so replaying the same query again
	// gives the same bytes.
	if _, _, again := get(t, ts, path); again != body {
		t.Error("two replays of one query diverge")
	}

	_, _, limited := get(t, ts, path+"&limit=5")
	lresp := traceBody(t, limited)
	if len(lresp.Events) != 5 || lresp.Capacity != 5 || lresp.Enqueued != resp.Enqueued {
		t.Fatalf("limit=5 returned %d events, capacity %d, totals %d (want 5, 5, %d)",
			len(lresp.Events), lresp.Capacity, lresp.Enqueued, resp.Enqueued)
	}
	for i, ev := range lresp.Events {
		if ev != resp.Events[len(resp.Events)-5+i] {
			t.Fatalf("limit=5 event %d is not the run's %dth-last event", i, 5-i)
		}
	}

	if status, _, body := get(t, ts, path+"&timeout=1ns"); status != http.StatusGatewayTimeout {
		t.Errorf("replay past its deadline = %d (%s), want 504", status, strings.TrimSpace(body))
	}
}

// TestTraceIsTheRunTail: a replay of id=tpp-timeline and of an event-driven
// spec= cell is, event for event and in its totals, a 4096-event ring
// attached to tpptimeline.Run with the config the adapter builds. A replay
// neither reads nor fills a memo cache, and the /v1/run after it answers
// the bytes of an uncached run.
func TestTraceIsTheRunTail(t *testing.T) {
	ts := testServer(t)
	seed := freshSeed()
	dataset, cell := experiments.CacheStats()

	_, _, body := get(t, ts, fmt.Sprintf("/v1/trace?id=tpp-timeline&seed=%d", seed))
	res, ring := runTrace(quickTimeline(seed), defaultTraceLimit)
	checkReplay(t, traceBody(t, body), res, ring)

	// The steady variant holds the burst rate at the base rate; ops= is the
	// epoch count and the spec's seed= the run's seed.
	cellSeed := freshSeed()
	_, _, body = get(t, ts, fmt.Sprintf("/v1/trace?spec=tpp-timeline:steady/ops=40/seed=%d", cellSeed))
	cfg := quickTimeline(cellSeed)
	cfg.Epochs, cfg.BurstQPS = 40, cfg.BaseQPS
	res, ring = runTrace(cfg, defaultTraceLimit)
	checkReplay(t, traceBody(t, body), res, ring)

	if d, c := experiments.CacheStats(); d != dataset || c != cell {
		t.Fatalf("replays moved the memo caches: dataset %+v → %+v, cell %+v → %+v", dataset, d, cell, c)
	}

	// The caches are process-wide, so a second server in this process
	// would share them; an uncached run of the driver stands in for a
	// fresh server's answer.
	status, _, got := get(t, ts, fmt.Sprintf("/v1/run?id=tpp-timeline&seed=%d", seed))
	if status != http.StatusOK {
		t.Fatalf("run after the replay = %d: %s", status, got)
	}
	if d, _ := experiments.CacheStats(); d.Misses != dataset.Misses+1 {
		t.Errorf("the run after the replay was not a dataset-cache miss: misses %d → %d", dataset.Misses, d.Misses)
	}
	o := experiments.DefaultOptions()
	o.Quick, o.Parallel, o.Seed = true, 1, uint64(seed)
	e, err := experiments.Get("tpp-timeline")
	if err != nil {
		t.Fatal(err)
	}
	want, err := results.Emit(e.Run(o), "json")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("the /v1/run after a replay differs from an uncached run of the same key")
	}
}

// TestTraceEndpointErrors: every malformed or unanswerable replay fails
// closed with a 4xx, never a 5xx or a panic, and a draining server sheds
// /v1/trace like the other compute endpoints.
func TestTraceEndpointErrors(t *testing.T) {
	s, ts := hardenedServer(t, Config{})
	for _, c := range []struct {
		path string
		want int
	}{
		{"/v1/trace", http.StatusBadRequest},
		{"/v1/trace?limit=20", http.StatusBadRequest},
		{"/v1/trace?id=tpp-timeline&spec=tpp-timeline", http.StatusBadRequest},
		{"/v1/trace?id=fig7", http.StatusBadRequest},
		{"/v1/trace?spec=kvstore", http.StatusBadRequest},
		{"/v1/trace?spec=tpp-timeline/ops=2000000", http.StatusBadRequest},
		{"/v1/trace?spec=tpp-timeline/qps=1e6", http.StatusBadRequest},
		{"/v1/trace?spec=tpp-timeline/device=bogus", http.StatusBadRequest},
		{"/v1/trace?id=tpp-timeline&platform=bogus", http.StatusBadRequest},
		{"/v1/trace?id=tpp-timeline&seed=banana", http.StatusBadRequest},
		{"/v1/trace?id=tpp-timeline&limit=-1", http.StatusBadRequest},
		{"/v1/trace?id=tpp-timeline&limit=0", http.StatusBadRequest},
		{"/v1/trace?id=tpp-timeline&limit=banana", http.StatusBadRequest},
		{"/v1/trace?id=tpp-timeline&limit=" + strconv.Itoa(maxTraceLimit+1), http.StatusBadRequest},
		{"/v1/trace?id=bogus", http.StatusNotFound},
	} {
		if status, _, body := get(t, ts, c.path); status != c.want {
			t.Errorf("GET %s = %d (%s), want %d", c.path, status, strings.TrimSpace(body), c.want)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/trace?id=tpp-timeline", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST = %d, want 405", resp.StatusCode)
	}

	s.Drain()
	resp, err = http.Get(ts.URL + "/v1/trace?id=tpp-timeline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("draining trace = %d (Retry-After %q), want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// scrapeSimEvents reads the three cxlserve_sim_events_total series.
func scrapeSimEvents(t *testing.T, ts *httptest.Server) sim.SchedulerStats {
	t.Helper()
	_, _, body := get(t, ts, "/metrics")
	if strings.Contains(body, "cxlserve_sim_trace_buffered") {
		t.Error("metrics still carry cxlserve_sim_trace_buffered")
	}
	n := func(phase string) uint64 {
		v, err := strconv.ParseUint(metricValue(t, body, fmt.Sprintf("cxlserve_sim_events_total{phase=%q}", phase)), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	return sim.SchedulerStats{Enqueued: n("enqueue"), Dispatched: n("dispatch"), Completed: n("complete")}
}

// TestTraceMetrics: cxlserve_sim_events_total counts all event traffic. An
// untraced /v1/run miss raises each phase by exactly one run's scheduler
// counters, a memo hit raises none, and a replay counts as the run it is.
func TestTraceMetrics(t *testing.T) {
	ts := testServer(t)
	seed := freshSeed()
	res, _ := runTrace(quickTimeline(seed), 1)
	run := fmt.Sprintf("/v1/run?id=tpp-timeline&seed=%d", seed)
	delta := func(before, after sim.SchedulerStats) sim.SchedulerStats {
		return sim.SchedulerStats{
			Enqueued:   after.Enqueued - before.Enqueued,
			Dispatched: after.Dispatched - before.Dispatched,
			Completed:  after.Completed - before.Completed,
		}
	}

	before := scrapeSimEvents(t, ts)
	if status, _, body := get(t, ts, run); status != http.StatusOK {
		t.Fatalf("miss = %d: %s", status, body)
	}
	missed := scrapeSimEvents(t, ts)
	if got := delta(before, missed); got != res.Events {
		t.Errorf("an untraced miss raised the series by %+v, want the run's %+v", got, res.Events)
	}

	if status, _, body := get(t, ts, run); status != http.StatusOK {
		t.Fatalf("hit = %d: %s", status, body)
	}
	hit := scrapeSimEvents(t, ts)
	if hit != missed {
		t.Errorf("a memo hit moved the series: %+v → %+v", missed, hit)
	}

	if status, _, body := get(t, ts, fmt.Sprintf("/v1/trace?id=tpp-timeline&seed=%d&limit=1", seed)); status != http.StatusOK {
		t.Fatalf("replay = %d: %s", status, body)
	}
	if got := delta(hit, scrapeSimEvents(t, ts)); got != res.Events {
		t.Errorf("a replay raised the series by %+v, want the run's %+v", got, res.Events)
	}
}

// TestTraceConcurrentWithRuns is the race exercise for the replay path:
// replays of one key race event-driven /v1/run misses (fresh seeds defeat
// the memo cache, so the scheduler really runs) and /metrics scrapes. Run
// under -race in CI. Everything must answer 200, and every replay of the
// key must be byte-identical, because replays share no state with each
// other or with the runs around them.
func TestTraceConcurrentWithRuns(t *testing.T) {
	ts := testServer(t)
	replay := fmt.Sprintf("/v1/trace?id=tpp-timeline&seed=%d&limit=64", freshSeed())
	paths := make([]string, 0, 12)
	for i := 0; i < 4; i++ {
		paths = append(paths,
			replay,
			fmt.Sprintf("/v1/run?id=tpp-timeline&seed=%d", freshSeed()),
			"/metrics",
		)
	}
	var wg sync.WaitGroup
	errs := make([]string, len(paths))
	bodies := make([]string, len(paths))
	for i, path := range paths {
		wg.Add(1)
		go func(i int, path string) {
			defer wg.Done()
			status, _, body := fetch(http.DefaultClient, ts.URL+path)
			if status != http.StatusOK {
				errs[i] = fmt.Sprintf("GET %s = %d: %s", path, status, body)
			}
			bodies[i] = string(body)
		}(i, path)
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Error(e)
		}
	}
	var first string
	for i, path := range paths {
		if path != replay {
			continue
		}
		if first == "" {
			first = bodies[i]
			if resp := traceBody(t, first); resp.Buffered != 64 || resp.Enqueued == 0 {
				t.Fatalf("replay under load is not a full ring: %+v", resp)
			}
		} else if bodies[i] != first {
			t.Error("concurrent replays of one key diverge")
		}
	}
}
