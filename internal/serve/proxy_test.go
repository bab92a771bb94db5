package serve

// Fault injection on the proxy hop: an owning replica that answers 5xx or
// 429, sends a body shorter than it declared, dies mid-body, or replies past
// the hop's timeout must never reach the client. The forwarding replica
// answers with its own locally computed bytes instead and counts the hop as
// an error. A complete 200 and a 404 still pass through verbatim.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cxlmem/internal/cluster"
	"cxlmem/internal/experiments"
)

// ownerHop is a replica whose ring has one peer, the fake owner, plus a
// request path whose key the owner holds and the bytes a replica computes
// for it locally.
type ownerHop struct {
	ts    *httptest.Server
	s     *Server
	path  string
	local string
}

// newOwnerHop boots a replica in front of owner, with a proxy client that
// gives up after timeout.
func newOwnerHop(t *testing.T, owner http.Handler, timeout time.Duration) *ownerHop {
	t.Helper()
	base := experiments.DefaultOptions()
	base.Quick = true
	base.Parallel = 1
	peer := httptest.NewServer(owner)
	t.Cleanup(peer.Close)
	var h http.Handler
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { h.ServeHTTP(w, r) }))
	t.Cleanup(ts.Close)
	ring, err := cluster.NewRing(ts.URL, []string{peer.URL})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(Config{Base: base, Ring: ring, ProxyClient: &http.Client{Timeout: timeout}})
	h = s.Handler()

	var path string
	for _, sc := range experiments.AllMatrixScenarios() {
		if !ring.Owns(experiments.ScenarioKey(base, sc)) {
			path = "/v1/scenario?spec=" + sc.String() + "&format=json"
			break
		}
	}
	if path == "" {
		t.Skip("the ring gave this replica every matrix cell")
	}
	local := httptest.NewServer(NewServer(Config{Base: base}).Handler())
	defer local.Close()
	status, _, body := get(t, local, path)
	if status != http.StatusOK {
		t.Fatalf("local reference for %s: status %d", path, status)
	}
	return &ownerHop{ts: ts, s: s, path: path, local: body}
}

// TestProxyFallsBackOnOwnerFaults: every owner fault answers the locally
// computed bytes with 200 and counts one proxy error, never one forward.
func TestProxyFallsBackOnOwnerFaults(t *testing.T) {
	status := func(code int) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "owner says no", code)
		})
	}
	stall := func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
	}
	faults := map[string]http.Handler{
		"500": status(http.StatusInternalServerError),
		"503": status(http.StatusServiceUnavailable),
		"429": status(http.StatusTooManyRequests),
		"short body": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Length", "100000")
			w.WriteHeader(http.StatusOK)
			_, _ = io.WriteString(w, `{"schema": 1,`)
		}),
		"closed mid-body": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			conn, rw, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			_, _ = rw.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n" +
				"Transfer-Encoding: chunked\r\n\r\nd\r\n{\"schema\": 1,\r\n")
			_ = rw.Flush()
			_ = conn.Close()
		}),
		"slow headers": http.HandlerFunc(stall),
		"slow body": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			_, _ = io.WriteString(w, `{"schema": 1,`)
			w.(http.Flusher).Flush()
			stall(w, r)
		}),
	}
	for name, owner := range faults {
		t.Run(name, func(t *testing.T) {
			hop := newOwnerHop(t, owner, 200*time.Millisecond)
			code, ctype, body := get(t, hop.ts, hop.path)
			if code != http.StatusOK || body != hop.local {
				t.Fatalf("status %d, %d bytes; want 200 and the %d locally computed bytes", code, len(body), len(hop.local))
			}
			if ctype != "application/json" {
				t.Fatalf("Content-Type %q, want the local emitter's", ctype)
			}
			if e, f := hop.s.metrics.proxyErrors.Load(), hop.s.metrics.proxyForwarded.Load(); e != 1 || f != 0 {
				t.Fatalf("proxy errors %d, forwarded %d; want 1 and 0", e, f)
			}
		})
	}
}

// TestProxyPassesOwnerRepliesVerbatim: a complete 200 and a 404 from the
// owner reach the client byte for byte, with their status, content type and
// length, and count as forwarded.
func TestProxyPassesOwnerRepliesVerbatim(t *testing.T) {
	for _, c := range []struct {
		code  int
		ctype string
		body  string
	}{
		{http.StatusOK, "application/json", "{\"owner\": \"computed this\"}\n"},
		{http.StatusNotFound, "text/plain; charset=utf-8", "unknown experiment\n"},
	} {
		owner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get(proxyHeader) == "" {
				t.Error("the hop did not stamp the loop-guard header")
			}
			w.Header().Set("Content-Type", c.ctype)
			w.WriteHeader(c.code)
			_, _ = io.WriteString(w, c.body)
		})
		hop := newOwnerHop(t, owner, 5*time.Second)
		resp, err := http.Get(hop.ts.URL + hop.path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.code || string(body) != c.body || resp.Header.Get("Content-Type") != c.ctype {
			t.Fatalf("%d: got %d %q %q", c.code, resp.StatusCode, resp.Header.Get("Content-Type"), body)
		}
		if resp.ContentLength != int64(len(c.body)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("%d: Content-Length %d, Transfer-Encoding %v; want %d and none",
				c.code, resp.ContentLength, resp.TransferEncoding, len(c.body))
		}
		if e, f := hop.s.metrics.proxyErrors.Load(), hop.s.metrics.proxyForwarded.Load(); e != 0 || f != 1 {
			t.Fatalf("%d: proxy errors %d, forwarded %d; want 0 and 1", c.code, e, f)
		}
	}
}
