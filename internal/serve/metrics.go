// The cxlserve observability surface: a small hand-rolled metrics registry
// (no client library — the repo carries zero dependencies) rendered as
// Prometheus-style text exposition on /metrics, plus the /healthz liveness
// probe. The metric catalog is documented in DESIGN.md §11.
package serve

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cxlmem/internal/experiments"
	"cxlmem/internal/memo"
	"cxlmem/internal/mlc"
	"cxlmem/internal/stats"
	"cxlmem/internal/workloads"
)

// serverMetrics is the per-Server telemetry state. Counters on the hot path
// (inflight, queued, shed) are atomics; the per-endpoint latency histograms
// and status counts share one mutex — they are touched once per request,
// after the response is written.
type serverMetrics struct {
	inflight atomic.Int64 // admitted compute requests currently running
	queued   atomic.Int64 // requests waiting for an admission slot
	shed     atomic.Int64 // requests rejected by the admission gate
	draining atomic.Bool  // set by Drain, never cleared

	proxyErrors    atomic.Int64 // proxy hops that failed and fell back local
	proxyForwarded atomic.Int64 // requests forwarded to their owning replica
	proxyReceived  atomic.Int64 // forwarded requests served here (loop guard)

	mu        sync.Mutex
	endpoints map[string]*endpointMetrics
}

// endpointMetrics aggregates one endpoint's request outcomes.
type endpointMetrics struct {
	latency  *stats.Histogram
	statuses map[int]int64
}

func newServerMetrics() *serverMetrics {
	return &serverMetrics{endpoints: map[string]*endpointMetrics{}}
}

// observe records one finished request.
func (m *serverMetrics) observe(endpoint string, code int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ep := m.endpoints[endpoint]
	if ep == nil {
		ep = &endpointMetrics{latency: stats.NewHistogram(stats.LatencyBounds()), statuses: map[int]int64{}}
		m.endpoints[endpoint] = ep
	}
	ep.latency.Observe(d.Seconds())
	ep.statuses[code]++
}

// statusRecorder captures the status code a handler writes so instrument
// can attribute the request to it; an unset status is the implicit 200.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

// WriteHeader records the explicit status and forwards it.
func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.code = code
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(code)
}

// Write marks the implicit 200 on a body written without WriteHeader.
func (r *statusRecorder) Write(b []byte) (int, error) {
	if !r.wrote {
		r.code = http.StatusOK
		r.wrote = true
	}
	return r.ResponseWriter.Write(b)
}

// status returns the recorded status, defaulting to 200 for a handler that
// wrote nothing.
func (r *statusRecorder) status() int {
	if !r.wrote {
		return http.StatusOK
	}
	return r.code
}

// metricsQuantiles are the latency quantiles exported per endpoint.
var metricsQuantiles = []float64{0.5, 0.9, 0.99}

// metricsHandler renders the metric catalog as Prometheus-style text:
// process-wide memo-cache counters (from internal/experiments), the event
// counters of every completed event-driven run (from internal/workloads),
// the admission gate's gauges and shed count, and per-endpoint request
// counts and latency quantiles. Output order is deterministic so tests and
// humans can diff two scrapes.
func (s *Server) metricsHandler(w http.ResponseWriter, r *http.Request) {
	if !methodGet(w, r) {
		return
	}
	writeBuffered(w, "text/plain; version=0.0.4; charset=utf-8", func(b []byte) ([]byte, error) {
		dataset, cell := experiments.CacheStats()
		for _, c := range []struct {
			name string
			st   memo.CacheStats
		}{{"dataset", dataset}, {"cell", cell}, {"warmstate", mlc.WarmStateStats()}} {
			b = fmt.Appendf(b, "cxlserve_cache_hits_total{cache=%q} %d\n", c.name, c.st.Hits)
			b = fmt.Appendf(b, "cxlserve_cache_misses_total{cache=%q} %d\n", c.name, c.st.Misses)
			b = fmt.Appendf(b, "cxlserve_cache_evictions_total{cache=%q} %d\n", c.name, c.st.Evictions)
			b = fmt.Appendf(b, "cxlserve_cache_entries{cache=%q} %d\n", c.name, c.st.Size)
			b = fmt.Appendf(b, "cxlserve_cache_inflight{cache=%q} %d\n", c.name, c.st.InFlight)
		}
		events := workloads.SimEvents()
		b = fmt.Appendf(b, "cxlserve_sim_events_total{phase=\"enqueue\"} %d\n", events.Enqueued)
		b = fmt.Appendf(b, "cxlserve_sim_events_total{phase=\"dispatch\"} %d\n", events.Dispatched)
		b = fmt.Appendf(b, "cxlserve_sim_events_total{phase=\"complete\"} %d\n", events.Completed)
		b = fmt.Appendf(b, "cxlserve_inflight %d\n", s.metrics.inflight.Load())
		b = fmt.Appendf(b, "cxlserve_queued %d\n", s.metrics.queued.Load())
		b = fmt.Appendf(b, "cxlserve_shed_total %d\n", s.metrics.shed.Load())
		b = fmt.Appendf(b, "cxlserve_draining %d\n", boolGauge(s.metrics.draining.Load()))
		// Sorted by result label, matching the deterministic-order contract.
		b = fmt.Appendf(b, "cxlserve_proxy_requests_total{result=\"error\"} %d\n", s.metrics.proxyErrors.Load())
		b = fmt.Appendf(b, "cxlserve_proxy_requests_total{result=\"forwarded\"} %d\n", s.metrics.proxyForwarded.Load())
		b = fmt.Appendf(b, "cxlserve_proxy_requests_total{result=\"received\"} %d\n", s.metrics.proxyReceived.Load())
		b = fmt.Appendf(b, "cxlserve_snapshot_restored_entries %d\n", s.cfg.SnapshotRestored)

		s.metrics.mu.Lock()
		defer s.metrics.mu.Unlock()
		names := make([]string, 0, len(s.metrics.endpoints))
		for name := range s.metrics.endpoints {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ep := s.metrics.endpoints[name]
			codes := make([]int, 0, len(ep.statuses))
			for code := range ep.statuses {
				codes = append(codes, code)
			}
			sort.Ints(codes)
			for _, code := range codes {
				b = fmt.Appendf(b, "cxlserve_requests_total{endpoint=%q,code=\"%d\"} %d\n", name, code, ep.statuses[code])
			}
			for _, q := range metricsQuantiles {
				b = fmt.Appendf(b, "cxlserve_request_latency_seconds{endpoint=%q,quantile=\"%g\"} %g\n",
					name, q, ep.latency.Quantile(q))
			}
			b = fmt.Appendf(b, "cxlserve_request_latency_seconds_count{endpoint=%q} %d\n", name, ep.latency.Count())
			b = fmt.Appendf(b, "cxlserve_request_latency_seconds_sum{endpoint=%q} %g\n", name, ep.latency.Sum())
		}
		return b, nil
	})
}

// healthz answers the liveness probe: 200 "ok" while serving, 503
// "draining" once Drain has run so load balancers stop routing here.
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	if !methodGet(w, r) {
		return
	}
	if s.metrics.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// boolGauge renders a bool as the conventional 0/1 gauge value.
func boolGauge(b bool) int {
	if b {
		return 1
	}
	return 0
}
