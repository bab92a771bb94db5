package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cxlmem/internal/experiments"
	"cxlmem/internal/results"
)

// hardenedServer builds a Server (not just its handler) so tests can reach
// Drain and the metrics gauges.
func hardenedServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Base.Seed == 0 {
		cfg.Base = experiments.DefaultOptions()
		cfg.Base.Quick = true
		cfg.Base.Parallel = 1
	}
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestOverloadShed saturates a MaxInflight=1, MaxQueue=0 gate: the second
// concurrent request must shed with 429 + Retry-After immediately (never
// hang), and after the slot frees the endpoint serves again.
func TestOverloadShed(t *testing.T) {
	s := NewServer(Config{MaxInflight: 1})
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	h := s.admit(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release // a closed channel admits every later request instantly
		w.WriteHeader(http.StatusOK)
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	errc := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("blocked request finished %d, want 200", resp.StatusCode)
			}
		}
		errc <- err
	}()
	<-entered // slot taken

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated gate = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	if got := s.metrics.shed.Load(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}

	close(release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release = %d, want 200", resp.StatusCode)
	}
	if got := s.metrics.inflight.Load(); got != 0 {
		t.Errorf("inflight gauge = %d after all requests done, want 0", got)
	}
}

// TestAdmitQueue checks the bounded wait queue: with MaxInflight=1 and
// MaxQueue=1, a second request waits (and eventually serves) while a third
// sheds 429; a drained queue releases its waiter with 503.
func TestAdmitQueue(t *testing.T) {
	s := NewServer(Config{MaxInflight: 1, MaxQueue: 1})
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	h := s.admit(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	get := func(c chan int) {
		resp, err := http.Get(ts.URL)
		if err != nil {
			c <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		c <- resp.StatusCode
	}
	c1, c2 := make(chan int, 1), make(chan int, 1)
	go get(c1)
	<-entered // request 1 holds the slot
	go get(c2)
	waitGauge(t, func() int64 { return s.metrics.queued.Load() }, 1, "queued")

	// Queue full: request 3 sheds immediately.
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request = %d, want 429", resp.StatusCode)
	}

	// Freeing the slot admits the queued request.
	release <- struct{}{}
	<-entered
	release <- struct{}{}
	if got := <-c1; got != http.StatusOK {
		t.Errorf("request 1 = %d, want 200", got)
	}
	if got := <-c2; got != http.StatusOK {
		t.Errorf("queued request = %d, want 200", got)
	}
	waitGauge(t, func() int64 { return s.metrics.queued.Load() }, 0, "queued")
}

// TestDrainReleasesQueued checks that Drain sheds a waiter stuck in the
// admission queue instead of leaving its connection hanging.
func TestDrainReleasesQueued(t *testing.T) {
	s := NewServer(Config{MaxInflight: 1, MaxQueue: 4})
	entered := make(chan struct{})
	release := make(chan struct{})
	h := s.admit(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		w.WriteHeader(http.StatusOK)
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	go http.Get(ts.URL) //nolint:errcheck — released below
	<-entered
	c := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL)
		if err != nil {
			c <- -1
			return
		}
		resp.Body.Close()
		c <- resp.StatusCode
	}()
	waitGauge(t, func() int64 { return s.metrics.queued.Load() }, 1, "queued")

	s.Drain()
	s.Drain() // idempotent
	if got := <-c; got != http.StatusServiceUnavailable {
		t.Errorf("queued request after Drain = %d, want 503", got)
	}
	close(release) // in-flight request still completes
}

// waitGauge polls an atomic gauge until it reaches want or the deadline
// expires.
func waitGauge(t *testing.T, load func() int64, want int64, name string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s gauge = %d, want %d", name, load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrainHealthz checks the shutdown surface: a draining server flips
// /healthz to 503 and sheds new compute requests with Retry-After, while
// /metrics and /v1/experiments stay reachable for a final scrape.
func TestDrainHealthz(t *testing.T) {
	s, ts := hardenedServer(t, Config{})
	if status, _, body := get(t, ts, "/healthz"); status != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("healthz = %d %q", status, body)
	}
	s.Drain()
	if status, _, _ := get(t, ts, "/healthz"); status != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d, want 503", status)
	}
	resp, err := http.Get(ts.URL + "/v1/run?id=table2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("draining run = %d (Retry-After %q), want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if status, _, _ := get(t, ts, "/metrics"); status != http.StatusOK {
		t.Errorf("draining metrics = %d, want 200 (final scrape must work)", status)
	}
}

// TestMetricsEndpoint drives traffic and asserts the exported counters
// move: request counts by endpoint and code, latency count, cache hits
// (the repeated query is a dataset-cache hit), and the draining gauge. It
// also pins the exact set of memo-cache series: five per cache, for the
// dataset, cell and warm-state caches.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := hardenedServer(t, Config{})
	for i := 0; i < 2; i++ {
		if status, _, body := get(t, ts, "/v1/run?id=table2"); status != http.StatusOK {
			t.Fatalf("run %d = %d: %s", i, status, body)
		}
	}
	get(t, ts, "/v1/run?id=fig99") // a 404 to diversify the code label

	status, ctype, body := get(t, ts, "/metrics")
	if status != http.StatusOK || !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("metrics = %d, content-type %s", status, ctype)
	}
	for _, want := range []string{
		`cxlserve_requests_total{endpoint="/v1/run",code="200"} 2`,
		`cxlserve_requests_total{endpoint="/v1/run",code="404"} 1`,
		`cxlserve_request_latency_seconds_count{endpoint="/v1/run"} 3`,
		`cxlserve_request_latency_seconds{endpoint="/v1/run",quantile="0.99"}`,
		`cxlserve_cache_misses_total{cache="dataset"}`,
		`cxlserve_cache_hits_total{cache="warmstate"}`,
		`cxlserve_cache_entries{cache="warmstate"}`,
		`cxlserve_inflight 0`,
		`cxlserve_shed_total 0`,
		`cxlserve_draining 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q\n%s", want, body)
		}
	}
	// The second identical run query must have hit the dataset cache:
	// hits_total{cache="dataset"} is a process-wide counter so other tests
	// contribute, but it must be strictly positive here.
	if strings.Contains(body, `cxlserve_cache_hits_total{cache="dataset"} 0`+"\n") {
		t.Error("dataset cache hits = 0 after a repeated query")
	}

	var want, got []string
	for _, cache := range []string{"dataset", "cell", "warmstate"} {
		for _, series := range []string{"hits_total", "misses_total", "evictions_total", "entries", "inflight"} {
			want = append(want, fmt.Sprintf("cxlserve_cache_%s{cache=%q}", series, cache))
		}
	}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "cxlserve_cache_") {
			name, _, _ := strings.Cut(line, " ")
			got = append(got, name)
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("cache series =\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestRequestTimeout proves the deadline path end to end: a request with a
// vanishing timeout is canceled mid-sweep and answers 504, and the identical
// query afterward (no timeout) succeeds — the canceled evaluation was not
// cached and did not poison the key.
func TestRequestTimeout(t *testing.T) {
	_, ts := hardenedServer(t, Config{})
	// A fresh seed gives every run of this test, -count included, a key no
	// earlier request cached.
	q := fmt.Sprintf("/v1/run?id=matrix-size&seed=%d", freshSeed())
	resp, err := http.Get(ts.URL + q + "&timeout=1ns")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out request = %d (%s), want 504", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("504 missing Retry-After")
	}
	if status, _, body := get(t, ts, q); status != http.StatusOK {
		t.Fatalf("retry after timeout = %d (%s), want 200 — canceled result must not be cached",
			status, strings.TrimSpace(body))
	}
}

// TestEventDrivenTimeoutCachesNothing: against a full-mode server, a
// tpp-timeline cell whose request times out answers 504, its run stops at
// the next epoch boundary instead of running on for its several CPU-seconds,
// and nothing is cached, so the identical request after it is a cell-cache
// miss again.
func TestEventDrivenTimeoutCachesNothing(t *testing.T) {
	base := experiments.DefaultOptions()
	base.Parallel = 1
	_, ts := hardenedServer(t, Config{Base: base})
	q := fmt.Sprintf("/v1/scenario?spec=tpp-timeline/qps=200000/ops=5000/seed=%d&timeout=100ms", freshSeed())
	_, before := experiments.CacheStats()
	for i := 0; i < 2; i++ {
		if status, _, body := get(t, ts, q); status != http.StatusGatewayTimeout {
			t.Fatalf("request %d = %d (%s), want 504", i, status, strings.TrimSpace(body))
		}
		deadline := time.Now().Add(time.Second)
		for {
			if _, c := experiments.CacheStats(); c.InFlight == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("request %d: the timed-out run was still computing 1 s after its 504", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if _, after := experiments.CacheStats(); after.Misses != before.Misses+2 || after.Hits != before.Hits || after.Size != before.Size {
		t.Fatalf("cell cache %+v → %+v: want two misses, no hit and nothing retained", before, after)
	}
}

// TestBadTimeout pins the timeout parameter's failure modes.
func TestBadTimeout(t *testing.T) {
	_, ts := hardenedServer(t, Config{})
	for _, path := range []string{
		"/v1/run?id=table2&timeout=banana",
		"/v1/run?id=table2&timeout=-5s",
		"/v1/scenario?spec=kvstore/policy=cxl&timeout=0s",
	} {
		if status, _, _ := get(t, ts, path); status != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", path, status)
		}
	}
}

// TestMethodNotAllowed posts to every endpoint.
func TestMethodNotAllowed(t *testing.T) {
	_, ts := hardenedServer(t, Config{})
	for _, path := range []string{
		"/v1/experiments", "/v1/run?id=table2",
		"/v1/scenario?spec=kvstore/policy=cxl", "/metrics", "/healthz",
	} {
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, resp.StatusCode)
		}
	}
}

// failingEmitter always fails mid-render.
type failingEmitter struct{}

// Name implements results.Emitter.
func (failingEmitter) Name() string { return "failing" }

// ContentType implements results.Emitter.
func (failingEmitter) ContentType() string { return "application/x-fail" }

// Append implements results.Emitter by appending half a body, then failing.
func (failingEmitter) Append(dst []byte, d *results.Dataset) ([]byte, error) {
	return append(dst, "partial"...), errors.New("emitter exploded")
}

// TestEmitFailure checks the buffered-emit contract: an emitter error after
// a partial append becomes a clean 500 with no partial body, no emitter
// content type and no Content-Length of the discarded bytes.
func TestEmitFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	emit(rec, failingEmitter{}, &results.Dataset{ID: "x"})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("emit failure = %d, want 500", rec.Code)
	}
	if strings.Contains(rec.Body.String(), "partial") {
		t.Error("partial emitter output leaked into the response body")
	}
	if ct := rec.Header().Get("Content-Type"); strings.HasPrefix(ct, "application/x-fail") {
		t.Errorf("failed emit set the emitter content type %q", ct)
	}
	if cl := rec.Header().Get("Content-Length"); cl != "" && cl != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("failed emit sent Content-Length %s for a %d-byte body", cl, rec.Body.Len())
	}
}

// TestSustainedLoad is the in-process load test: 200 concurrent mixed
// queries against a bounded gate with a queue deep enough to hold them all.
// Every request must answer 200 (no sheds, no 5xx, no hangs) and the
// admission gauges must return to zero.
func TestSustainedLoad(t *testing.T) {
	base := experiments.DefaultOptions()
	base.Quick = true
	base.Parallel = 2
	s, ts := hardenedServer(t, Config{
		Base:        base,
		Timeout:     time.Minute,
		MaxInflight: 8,
		MaxQueue:    256,
	})
	paths := []string{
		"/v1/run?id=table2",
		"/v1/run?id=fig4a&format=text",
		"/v1/run?id=matrix-size",
		"/v1/scenario?spec=fluid/policy=interleave/size=64M",
		"/v1/scenario?spec=kvstore/policy=cxl",
		"/v1/experiments",
	}
	const n = 200
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + paths[i%len(paths)])
			if err != nil {
				codes[i] = -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d (%s) = %d, want 200", i, paths[i%len(paths)], code)
		}
	}
	if got := s.metrics.inflight.Load(); got != 0 {
		t.Errorf("inflight = %d after load, want 0", got)
	}
	if got := s.metrics.queued.Load(); got != 0 {
		t.Errorf("queued = %d after load, want 0", got)
	}
	if got := s.metrics.shed.Load(); got != 0 {
		t.Errorf("shed = %d with a deep queue, want 0", got)
	}
}
