package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"cxlmem/internal/sim"
	"cxlmem/internal/telemetry"
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

// TestTraceEndpoint runs the event-driven tpp-timeline experiment through
// /v1/run and then reads the scheduler's event stream back through /v1/trace:
// the ring must be non-empty, phase-consistent, ordered, and — because the
// engine is deterministic and nothing runs in between — two consecutive
// snapshots must be byte-identical.
func TestTraceEndpoint(t *testing.T) {
	telemetry.Sim.Reset()
	ts := testServer(t)
	if status, _, body := get(t, ts, fmt.Sprintf("/v1/run?id=tpp-timeline&seed=%d", freshSeed())); status != http.StatusOK {
		t.Fatalf("priming run = %d: %s", status, body)
	}

	status, ctype, body := get(t, ts, "/v1/trace")
	if status != http.StatusOK || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("status %d, content-type %s", status, ctype)
	}
	resp := traceBody(t, body)
	if resp.Enqueued == 0 || resp.Dispatched == 0 || resp.Completed == 0 {
		t.Fatalf("totals = %+v, want all phases non-zero after a run", resp)
	}
	if resp.Buffered == 0 || len(resp.Events) != resp.Buffered {
		t.Fatalf("buffered = %d but %d events returned", resp.Buffered, len(resp.Events))
	}
	if resp.Capacity != telemetry.Sim.Cap() {
		t.Errorf("capacity = %d, want %d", resp.Capacity, telemetry.Sim.Cap())
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

	// Determinism at the HTTP surface: the ring is quiescent, so a second
	// snapshot must be byte-identical to the first.
	if _, _, again := get(t, ts, "/v1/trace"); again != body {
		t.Error("consecutive /v1/trace snapshots diverge on a quiescent ring")
	}

	// limit= caps the events to the most recent N; the totals still cover
	// the whole run.
	_, _, limited := get(t, ts, "/v1/trace?limit=5")
	lresp := traceBody(t, limited)
	if len(lresp.Events) != 5 || lresp.Enqueued != resp.Enqueued {
		t.Fatalf("limit=5 returned %d events, totals %d (want 5, %d)", len(lresp.Events), lresp.Enqueued, resp.Enqueued)
	}
	if lresp.Events[4] != resp.Events[len(resp.Events)-1] {
		t.Error("limit= does not keep the most recent events")
	}
}

// TestTraceIsTheRunTail: after one tpp-timeline run, /v1/trace serves exactly
// the tail a same-capacity ring attached directly to tpptimeline.Run records
// for the same config and seed, and its totals are the run's event counts.
// The config is the quick one the workload adapter builds: Quick's pages,
// but the adapter's 200 epochs (1 s), not Quick's 30.
func TestTraceIsTheRunTail(t *testing.T) {
	seed := freshSeed()
	telemetry.Sim.Reset()
	ts := testServer(t)
	if status, _, body := get(t, ts, fmt.Sprintf("/v1/run?id=tpp-timeline&seed=%d", seed)); status != http.StatusOK {
		t.Fatalf("run = %d: %s", status, body)
	}
	_, _, body := get(t, ts, "/v1/trace")
	resp := traceBody(t, body)

	cfg := tpptimeline.DefaultConfig().Quick()
	cfg.Epochs, cfg.Seed = 200, uint64(seed)
	ring := sim.NewTraceRing(telemetry.Sim.Cap())
	sys := topo.NewSystem(topo.DefaultConfig())
	res := tpptimeline.Run(sys, cfg, "CXL-A", ring)

	want := ring.Snapshot()
	if len(resp.Events) != len(want) || resp.Buffered != len(want) {
		t.Fatalf("/v1/trace has %d events (buffered %d), the run's ring %d", len(resp.Events), resp.Buffered, len(want))
	}
	for i, te := range want {
		w := traceEventJSON{Phase: te.Phase.String(), Seq: te.Seq, AtPS: int64(te.At), NowPS: int64(te.Now), Actor: te.Actor, Kind: te.Kind}
		if resp.Events[i] != w {
			t.Fatalf("event %d = %+v, the run's ring has %+v", i, resp.Events[i], w)
		}
	}
	if ev := res.Events; resp.Enqueued != ev.Enqueued || resp.Dispatched != ev.Dispatched || resp.Completed != ev.Completed {
		t.Fatalf("totals %d/%d/%d, the run's event counts %+v", resp.Enqueued, resp.Dispatched, resp.Completed, ev)
	}
}

// TestTraceEndpointErrors pins the failure modes: malformed limit and wrong
// method.
func TestTraceEndpointErrors(t *testing.T) {
	ts := testServer(t)
	for _, path := range []string{"/v1/trace?limit=-1", "/v1/trace?limit=banana"} {
		if status, _, _ := get(t, ts, path); status != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", path, status)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/trace", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST = %d, want 405", resp.StatusCode)
	}
}

// TestTraceMetrics checks the /metrics exposition carries the sim counters
// after an event-driven run.
func TestTraceMetrics(t *testing.T) {
	telemetry.Sim.Reset()
	ts := testServer(t)
	if status, _, body := get(t, ts, fmt.Sprintf("/v1/run?id=tpp-timeline&seed=%d", freshSeed())); status != http.StatusOK {
		t.Fatalf("priming run = %d: %s", status, body)
	}
	status, _, body := get(t, ts, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics = %d", status)
	}
	for _, phase := range []string{"enqueue", "dispatch", "complete"} {
		prefix := fmt.Sprintf("cxlserve_sim_events_total{phase=%q} ", phase)
		found := false
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, prefix) {
				found = true
				if strings.TrimPrefix(line, prefix) == "0" {
					t.Errorf("%s is zero after an event-driven run", strings.TrimSpace(line))
				}
			}
		}
		if !found {
			t.Errorf("metrics lack %s", prefix)
		}
	}
	if !strings.Contains(body, "cxlserve_sim_trace_buffered ") {
		t.Error("metrics lack cxlserve_sim_trace_buffered")
	}
}

// TestTraceConcurrentWithRuns is the race exercise from the acceptance
// criteria: /v1/trace snapshots race event-driven /v1/run compute (fresh
// seeds defeat the memo cache so the scheduler really runs) plus /metrics
// scrapes. Run under -race in CI; everything must return 200 and every trace
// body must decode.
func TestTraceConcurrentWithRuns(t *testing.T) {
	telemetry.Sim.Reset()
	ts := testServer(t)
	paths := make([]string, 0, 16)
	for i := 0; i < 4; i++ {
		paths = append(paths,
			fmt.Sprintf("/v1/run?id=tpp-timeline&seed=%d", freshSeed()),
			"/v1/trace",
			"/v1/trace?limit=10",
			"/metrics",
		)
	}
	var wg sync.WaitGroup
	errs := make([]string, len(paths))
	for i, path := range paths {
		wg.Add(1)
		go func(i int, path string) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				errs[i] = fmt.Sprintf("GET %s: %v", path, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Sprintf("GET %s = %d", path, resp.StatusCode)
			}
		}(i, path)
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Error(e)
		}
	}
	// After the dust settles the ring must hold a full, decodable stream.
	_, _, body := get(t, ts, "/v1/trace")
	if resp := traceBody(t, body); resp.Enqueued == 0 || resp.Buffered == 0 {
		t.Errorf("post-race trace is empty: %+v", resp)
	}
}
