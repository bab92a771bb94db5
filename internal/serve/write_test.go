package serve

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cxlmem/internal/experiments"
	"cxlmem/internal/results"
	"cxlmem/internal/workloads"
)

// fetch GETs url with client and returns the status, response and body;
// the status is -1 on a transport error.
func fetch(client *http.Client, url string) (int, *http.Response, []byte) {
	resp, err := client.Get(url)
	if err != nil {
		return -1, nil, nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return -1, resp, nil
	}
	return resp.StatusCode, resp, body
}

// TestResponsesCarryContentLength checks the buffered write path: every
// rendered response, the 91 KB tpp-timeline in each format included, goes
// out with a Content-Length equal to its body and is never chunked.
func TestResponsesCarryContentLength(t *testing.T) {
	ts := testServer(t)
	if status, _, body := get(t, ts, "/v1/run?id=tpp-timeline"); status != http.StatusOK {
		t.Fatalf("priming run = %d: %s", status, body)
	}
	for _, path := range []string{
		"/v1/run?id=tpp-timeline",
		"/v1/run?id=tpp-timeline&format=text",
		"/v1/run?id=tpp-timeline&format=csv",
		"/v1/scenario?spec=kvstore/policy=cxl",
		"/v1/experiments",
		"/v1/trace?id=tpp-timeline&limit=100",
		"/metrics",
	} {
		status, resp, body := fetch(http.DefaultClient, ts.URL+path)
		if status != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, status, body)
		}
		if resp.ContentLength != int64(len(body)) {
			t.Errorf("GET %s: Content-Length %d for a %d-byte body", path, resp.ContentLength, len(body))
		}
		if len(resp.TransferEncoding) != 0 {
			t.Errorf("GET %s: Transfer-Encoding %v, want none", path, resp.TransferEncoding)
		}
		if strings.HasPrefix(path, "/v1/run?id=tpp-timeline") && len(body) <= 2048 {
			t.Errorf("GET %s: %d-byte body is too small to have been chunked", path, len(body))
		}
	}
}

// TestEmitNonFiniteIs500 sends a dataset with a NaN cell through the real
// JSON emitter: it has no JSON form, so the response is a 500 with none of
// the encoding in the body and no JSON content type.
func TestEmitNonFiniteIs500(t *testing.T) {
	em, err := results.Lookup("json")
	if err != nil {
		t.Fatal(err)
	}
	d := results.New("nan", "a NaN cell", results.Column{Name: "v"})
	d.AddRow(results.Num(math.NaN(), 1))
	rec := httptest.NewRecorder()
	emit(rec, em, d)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("NaN dataset = %d, want 500", rec.Code)
	}
	if strings.Contains(rec.Body.String(), "schema") {
		t.Errorf("partial JSON leaked into the 500 body: %q", rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		t.Errorf("failed emit set content type %q", ct)
	}
}

// TestPooledBuffersNeverCross drives concurrent requests for different
// datasets and formats, so response buffers are recycled between them
// constantly: each response must be exactly its reference bytes. Run under
// -race in CI.
func TestPooledBuffersNeverCross(t *testing.T) {
	ts := testServer(t)
	o := experiments.DefaultOptions()
	o.Quick = true
	o.Parallel = 1
	want := map[string]string{}
	for _, q := range []struct{ id, format string }{
		{"tpp-timeline", "json"}, {"tpp-timeline", "text"}, {"tpp-timeline", "csv"},
		{"fig5", "json"}, {"table2", "text"}, {"table3", "json"},
		{"matrix-platform", "csv"}, {"fig4a", "csv"},
	} {
		d, err := experiments.RunDataset(q.id, o)
		if err != nil {
			t.Fatal(err)
		}
		if want["/v1/run?id="+q.id+"&format="+q.format], err = results.Emit(d, q.format); err != nil {
			t.Fatal(err)
		}
	}
	sc, err := workloads.ParseScenario("kvstore/policy=cxl")
	if err != nil {
		t.Fatal(err)
	}
	d, err := experiments.ScenarioResult(o, sc)
	if err != nil {
		t.Fatal(err)
	}
	if want["/v1/scenario?spec=kvstore/policy=cxl&format=json"], err = results.Emit(d, "json"); err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 0, len(want))
	for p := range want {
		paths = append(paths, p)
	}

	const workers, perWorker = 8, 27
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				path := paths[(w+i)%len(paths)]
				status, resp, body := fetch(http.DefaultClient, ts.URL+path)
				if status != http.StatusOK {
					t.Errorf("GET %s = %d", path, status)
					return
				}
				if string(body) != want[path] {
					t.Errorf("GET %s: %d-byte body differs from its %d reference bytes", path, len(body), len(want[path]))
					return
				}
				if resp.Header.Get("Content-Length") != strconv.Itoa(len(body)) {
					t.Errorf("GET %s: Content-Length %q for %d bytes", path, resp.Header.Get("Content-Length"), len(body))
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// yieldingWriter is a ResponseWriter whose Write lets other goroutines run
// before it copies the body out, as a write to a slow client would.
type yieldingWriter struct{ *httptest.ResponseRecorder }

// Write implements http.ResponseWriter.
func (w yieldingWriter) Write(p []byte) (int, error) {
	runtime.Gosched()
	return w.ResponseRecorder.Write(p)
}

// TestPooledBufferOutlivesItsWrite renders distinct bodies from many
// goroutines through writeBuffered into writers that yield mid-write. A
// buffer returned to the pool before its Write finished would be handed to
// another render and overwrite the body being sent.
func TestPooledBufferOutlivesItsWrite(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			body := strings.Repeat(string(rune('a'+g)), 3000+g)
			for i := 0; i < 50; i++ {
				rec := httptest.NewRecorder()
				writeBuffered(yieldingWriter{rec}, "text/plain", func(dst []byte) ([]byte, error) {
					return append(dst, body...), nil
				})
				if rec.Body.String() != body {
					t.Errorf("goroutine %d: body of %d bytes changed while it was written", g, len(body))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestNoGoroutinesLeakAfterDrain runs mixed traffic through a one-slot gate
// — every endpoint, plus a request that waits in the queue and is shed when
// the server drains — then closes the server and the client's idle
// connections: the goroutine count must fall back to where it started.
func TestNoGoroutinesLeakAfterDrain(t *testing.T) {
	baseline := runtime.NumGoroutine()
	base := experiments.DefaultOptions()
	base.Quick = true
	base.Parallel = 1
	s := NewServer(Config{Base: base, Timeout: time.Minute, MaxInflight: 1, MaxQueue: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	mux.HandleFunc("/hold", s.admit(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
	}))
	ts := httptest.NewServer(mux)
	transport := &http.Transport{}
	client := &http.Client{Transport: transport}

	for _, path := range []string{
		"/v1/run?id=tpp-timeline",
		"/v1/run?id=fig4a&format=text",
		"/v1/run?id=table2&format=csv",
		"/v1/scenario?spec=kvstore/policy=cxl",
		"/v1/experiments",
		"/v1/trace?id=tpp-timeline&limit=10",
		"/metrics",
		"/healthz",
	} {
		if status, _, body := fetch(client, ts.URL+path); status != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, status, body)
		}
	}

	held := make(chan int, 1)
	go func() {
		status, _, _ := fetch(client, ts.URL+"/hold")
		held <- status
	}()
	<-entered
	queued := make(chan int, 1)
	go func() {
		status, _, _ := fetch(client, ts.URL+"/v1/run?id=table2")
		queued <- status
	}()
	waitGauge(t, s.metrics.queued.Load, 1, "queued")
	s.Drain()
	if got := <-queued; got != http.StatusServiceUnavailable {
		t.Errorf("queued request after Drain = %d, want 503", got)
	}
	close(release)
	if got := <-held; got != http.StatusOK {
		t.Errorf("in-flight request after Drain = %d, want 200", got)
	}

	ts.Close()
	transport.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines 5 s after drain, %d before the test:\n%s", runtime.NumGoroutine(), baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
