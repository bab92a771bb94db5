// The sharded-cache proxy hop and the warm-start snapshot endpoint
// (DESIGN.md §14). With Config.Ring set, each compute request resolves its
// canonical memo key and is either served locally (this replica owns the
// key, or a peer already forwarded it here) or forwarded exactly one hop to
// the owning replica. The single-hop guarantee comes from the loop-guard
// header: a forwarded request is always served where it lands, even if ring
// views disagree mid-rollout, so misconfigured peer sets degrade to extra
// computation, never to a forwarding loop. The hop falls back, never
// forwards a failure: a transport error, a timeout, an owner's 5xx or 429,
// and a reply that ends early or runs past cluster.MaxReply all fall back to
// local computation — any replica can compute any key with byte-identical
// results, so the fleet keeps its zero-5xx envelope while a peer is down or
// sick.
package serve

import (
	"net/http"
	"strconv"
	"strings"

	"cxlmem/internal/cluster"
	"cxlmem/internal/experiments"
)

// proxyHeader is the loop-guard header stamped on every forwarded request.
// Its value is the forwarding replica's advertised address, which makes the
// hop visible in access logs; its presence alone disarms re-forwarding.
const proxyHeader = "X-Cxlserve-Proxy"

// proxyClient resolves the HTTP client for the proxy hop.
func (s *Server) proxyClient() *http.Client {
	if s.cfg.ProxyClient != nil {
		return s.cfg.ProxyClient
	}
	return &http.Client{Timeout: cluster.HopTimeout}
}

// proxy routes one compute request by its canonical key. It returns true if
// the response was fully written (the owning replica answered, and its
// complete reply was passed on); false means the caller must serve locally —
// because sharding is off, this replica owns the key, a peer already
// forwarded the request here (loop guard), or the hop failed and local
// computation is the fallback.
func (s *Server) proxy(w http.ResponseWriter, r *http.Request, key string) bool {
	if s.cfg.Ring == nil {
		return false
	}
	if r.Header.Get(proxyHeader) != "" {
		// One hop only: a forwarded request is served where it lands.
		s.metrics.proxyReceived.Add(1)
		return false
	}
	if s.cfg.Ring.Owns(key) {
		return false
	}
	owner := s.cfg.Ring.Owner(key)
	target := strings.TrimSuffix(owner, "/") + r.URL.Path
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, target, nil)
	if err != nil {
		s.metrics.proxyErrors.Add(1)
		return false
	}
	self := s.cfg.Ring.Self()
	if self == "" {
		self = "1"
	}
	req.Header.Set(proxyHeader, self)
	resp, err := s.proxyClient().Do(req)
	if err != nil {
		// The owner is unreachable; compute locally rather than surface a
		// 5xx — correctness never depended on where the key runs.
		s.metrics.proxyErrors.Add(1)
		return false
	}
	bp := bufferPool.Get().(*[]byte)
	body, err := cluster.ReadReply((*bp)[:0], resp, cluster.MaxReply)
	resp.Body.Close()
	if err != nil || !forwardable(resp.StatusCode) {
		// The owner failed, shed the request, or did not finish its reply:
		// nothing has been written yet, so the local path answers instead.
		putBuffer(bp, body)
		s.metrics.proxyErrors.Add(1)
		return false
	}
	s.metrics.proxyForwarded.Add(1)
	h := w.Header()
	if v := resp.Header.Get("Content-Type"); v != "" {
		h.Set("Content-Type", v)
	}
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)
	putBuffer(bp, body)
	return true
}

// forwardable reports whether an owner's status may be passed to the
// client: a success, or a client error the local path would answer the same
// way. 429 is the owner's overload, not the request's fault, and 1xx, 3xx
// and 5xx are never passed on.
func forwardable(status int) bool {
	return status >= 200 && status < 300 || status >= 400 && status < 500 && status != http.StatusTooManyRequests
}

// snapshot serves GET /v1/snapshot: the dataset cache's warm-start snapshot
// in the schema internal/experiments.ImportDatasetCache accepts, so an
// operator can seed a fresh replica from a warm one with two curls.
func (s *Server) snapshot(w http.ResponseWriter, r *http.Request) {
	if !methodGet(w, r) {
		return
	}
	data, err := experiments.ExportDatasetCache()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}
