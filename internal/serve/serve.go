// Package serve implements the cxlserve HTTP API (DESIGN.md §10–§11): a
// query daemon over the structured-results core. Every response is a
// results.Dataset rendered by a pluggable emitter, and every computation
// flows through the process-wide memo caches — the experiment dataset cache
// and the scenario cell cache — so concurrent requests for the same result
// share one evaluation (single-flight) and repeats are free. A cached result
// stays until the entry budget evicts it: every result is a pure function of
// its memo key, so nothing else expires it.
//
// The serving path is hardened for sustained mixed load: compute endpoints
// pass an admission gate (a bounded in-flight semaphore with a small wait
// queue; excess load is shed with 429/503 + Retry-After, never a hung
// connection), every request carries a context deadline (the server's
// -timeout flag, lowerable per request with timeout=) whose expiry cancels
// in-flight sweep work, and a draining server rejects new compute work
// while in-flight requests finish.
//
// Endpoints (all GET):
//
//	/v1/experiments                         registry listing (JSON)
//	/v1/run?id=fig3&format=json             one experiment, emitted
//	/v1/scenario?spec=dlrm/policy=cxl:63    one scenario cell, emitted
//	/v1/snapshot                            dataset-cache warm-start snapshot
//	/v1/trace?id=tpp-timeline&limit=100     one event-driven run, replayed traced (JSON)
//	/metrics                                cache/admission/latency counters
//	/healthz                                liveness ("ok", or 503 draining)
//
// Shared query parameters on /v1/run, /v1/scenario and /v1/trace: format
// (text|json|csv, default json — it is a query daemon; /v1/trace always
// answers JSON), platform, quick, fidelity (exact|auto|fast, the
// measurement tier of the cache-simulating experiments), seed, timeout.
// /v1/trace takes the id= or spec= of the response it explains, plus
// limit= (default 4096, at most 65536). Request knobs override the
// server's base options; the sweep worker count stays a server-side
// setting so clients cannot oversubscribe the host, and a request timeout
// can only lower the server's deadline, never raise it.
//
// With Config.EnablePprof (the -pprof flag), the standard net/http/pprof
// profiling handlers are additionally served under /debug/pprof/. They
// bypass the admission gate by design — profiling an overloaded daemon is
// exactly when the gate would shed them — so the flag must only be enabled
// on instances that are not exposed to untrusted clients.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	httppprof "net/http/pprof"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"cxlmem/internal/cluster"
	"cxlmem/internal/experiments"
	"cxlmem/internal/results"
	"cxlmem/internal/topo"
	"cxlmem/internal/workloads"
)

// defaultFormat is the emitter used when a request names none: JSON, the
// machine-readable form a query daemon exists to serve.
const defaultFormat = "json"

// retryAfter is the Retry-After value (seconds) attached to every shed
// response: overload here is compute-bound and drains quickly once the
// in-flight requests complete.
const retryAfter = "1"

// Config tunes a Server. The zero value (no admission bound, no deadline)
// reproduces the PR-5 prototype behavior.
type Config struct {
	// Base supplies the option defaults every request starts from (quick
	// mode for a staging daemon, a pinned seed, the sweep worker budget).
	Base experiments.Options
	// Timeout bounds each compute request's evaluation when positive; a
	// request's timeout= parameter may lower it but never raise it. An
	// expired deadline cancels the request's in-flight sweep work (unless
	// another request waits on the same cached key) and answers 504.
	Timeout time.Duration
	// MaxInflight caps concurrently admitted compute requests (/v1/run,
	// /v1/scenario) when positive; 0 admits everything.
	MaxInflight int
	// MaxQueue is how many requests beyond MaxInflight may wait for a slot
	// before new arrivals are shed with 429. Waiting requests that hit
	// their deadline are shed with 503. Only meaningful with MaxInflight.
	MaxQueue int
	// EnablePprof serves the net/http/pprof handlers under /debug/pprof/,
	// outside the admission gate (see the package doc's security note).
	EnablePprof bool
	// Ring, when non-nil, shards the compute endpoints across a replica
	// fleet by canonical memo key: a request whose key this replica owns is
	// served locally, anything else is forwarded one hop to its owner (see
	// DESIGN.md §14). Replicas in one ring must share base options, or an
	// unpinned request resolves to different keys on different members.
	Ring *cluster.Ring
	// ProxyClient is the HTTP client used for the single proxy hop; nil
	// uses a default bounded by cluster.HopTimeout, like the coordinator's.
	ProxyClient *http.Client
	// SnapshotRestored is the number of dataset-cache entries restored from
	// a warm-start snapshot at boot, exported on /metrics so operators (and
	// the CI smoke test) can verify a restart actually warm-started.
	SnapshotRestored int
}

// Server is the hardened cxlserve request handler: admission gate, request
// deadlines, metrics. Build one with NewServer, serve its Handler — the one
// way to build the HTTP API — and call Drain when shutting down.
type Server struct {
	cfg     Config
	sem     chan struct{} // admission slots; nil = unbounded
	drainCh chan struct{} // closed by Drain
	metrics *serverMetrics
}

// NewServer builds a Server over the given config.
func NewServer(cfg Config) *Server {
	s := &Server{cfg: cfg, drainCh: make(chan struct{}), metrics: newServerMetrics()}
	if cfg.MaxInflight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInflight)
	}
	return s
}

// Handler returns the cxlserve HTTP API over this server's gates.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/experiments", s.instrument("/v1/experiments", s.experiments))
	mux.HandleFunc("/v1/run", s.instrument("/v1/run", s.admit(s.run)))
	mux.HandleFunc("/v1/scenario", s.instrument("/v1/scenario", s.admit(s.scenario)))
	mux.HandleFunc("/v1/trace", s.instrument("/v1/trace", s.admit(s.trace)))
	// Outside admit: the snapshot is a read of already-computed cache state
	// (no evaluation to gate), and a draining replica must still be able to
	// hand its warm cache to whoever restarts it.
	mux.HandleFunc("/v1/snapshot", s.instrument("/v1/snapshot", s.snapshot))
	mux.HandleFunc("/metrics", s.metricsHandler)
	mux.HandleFunc("/healthz", s.healthz)
	if s.cfg.EnablePprof {
		// Deliberately outside admit: profiling must stay reachable while
		// the compute gate is shedding, and pprof's own handlers bound
		// their work. Index covers the /debug/pprof/{heap,goroutine,...}
		// lookups; the four fixed handlers are not plain profiles.
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	}
	return recoverMiddleware(mux)
}

// Drain moves the server into shutdown mode: /healthz turns 503 so load
// balancers stop routing here, queued compute requests are released with a
// shed response, and new compute requests are shed immediately. In-flight
// requests run to completion — pair Drain with http.Server.Shutdown.
func (s *Server) Drain() {
	if s.metrics.draining.CompareAndSwap(false, true) {
		close(s.drainCh)
	}
}

// recoverMiddleware converts a panicking handler (experiment drivers treat
// internal failures as programming errors) into a 500 instead of killing
// the daemon's connection goroutine silently. The instrument wrapper
// already recovers compute handlers — this is the backstop for everything
// else.
func recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				http.Error(w, fmt.Sprintf("internal error: %v", rec), http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// instrument wraps a handler with per-endpoint telemetry: status capture,
// latency observation, and panic recovery (so the recorded status is the
// 500 actually sent).
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				if !rec.wrote {
					http.Error(rec, fmt.Sprintf("internal error: %v", p), http.StatusInternalServerError)
				}
			}
			s.metrics.observe(endpoint, rec.status(), time.Since(start))
		}()
		h(rec, r)
	}
}

// admit is the load-shedding gate in front of the compute endpoints. A free
// slot admits immediately; otherwise the request waits in a bounded queue
// until a slot frees, its deadline fires (503), or the queue is already
// full on arrival (429). A draining server sheds everything. Shed responses
// always carry Retry-After and are counted.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.metrics.draining.Load() {
			s.shed(w, http.StatusServiceUnavailable, "draining: retry against another replica")
			return
		}
		if s.sem != nil {
			select {
			case s.sem <- struct{}{}: // fast path: free slot
			default:
				if int(s.metrics.queued.Add(1)) > s.cfg.MaxQueue {
					s.metrics.queued.Add(-1)
					s.shed(w, http.StatusTooManyRequests, "overloaded: in-flight and queue budgets exhausted")
					return
				}
				select {
				case s.sem <- struct{}{}:
					s.metrics.queued.Add(-1)
				case <-r.Context().Done():
					s.metrics.queued.Add(-1)
					s.shed(w, http.StatusServiceUnavailable, "overloaded: gave up waiting for an admission slot")
					return
				case <-s.drainCh:
					s.metrics.queued.Add(-1)
					s.shed(w, http.StatusServiceUnavailable, "draining: retry against another replica")
					return
				}
			}
			defer func() { <-s.sem }()
		}
		s.metrics.inflight.Add(1)
		defer s.metrics.inflight.Add(-1)
		h(w, r)
	}
}

// shed writes one load-shedding response with its Retry-After hint.
func (s *Server) shed(w http.ResponseWriter, status int, msg string) {
	s.metrics.shed.Add(1)
	w.Header().Set("Retry-After", retryAfter)
	http.Error(w, msg, status)
}

// experimentInfo is one row of the /v1/experiments listing.
type experimentInfo struct {
	ID   string `json:"id"`
	Desc string `json:"desc"`
}

// catalog is the /v1/experiments response shape: the runnable experiment
// IDs plus the accepted format and platform values for /v1/run.
type catalog struct {
	Experiments []experimentInfo `json:"experiments"`
	Formats     []string         `json:"formats"`
	Platforms   []string         `json:"platforms"`
}

func (s *Server) experiments(w http.ResponseWriter, r *http.Request) {
	if !methodGet(w, r) {
		return
	}
	c := catalog{Formats: results.Formats(), Platforms: topo.PlatformNames()}
	for _, e := range experiments.All() {
		c.Experiments = append(c.Experiments, experimentInfo{ID: e.ID, Desc: e.Desc})
	}
	writeBuffered(w, "application/json", func(dst []byte) ([]byte, error) {
		return appendIndentedJSON(dst, c)
	})
}

func (s *Server) run(w http.ResponseWriter, r *http.Request) {
	if !methodGet(w, r) {
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		http.Error(w, "missing id parameter (see /v1/experiments)", http.StatusBadRequest)
		return
	}
	opts, em, ok := s.requestOptions(w, r)
	if !ok {
		return
	}
	// An unknown id falls through to the local path, which answers the 404.
	if key, err := experiments.DatasetKey(id, opts); err == nil && s.proxy(w, r, key) {
		return
	}
	ctx, cancel, ok := s.requestContext(w, r)
	if !ok {
		return
	}
	defer cancel()
	opts.Ctx = ctx
	d, err := experiments.RunDataset(id, opts)
	if err != nil {
		writeError(w, err)
		return
	}
	emit(w, em, d)
}

func (s *Server) scenario(w http.ResponseWriter, r *http.Request) {
	if !methodGet(w, r) {
		return
	}
	spec := r.URL.Query().Get("spec")
	if spec == "" {
		http.Error(w, "missing spec parameter (e.g. spec=dlrm/policy=cxl:63)", http.StatusBadRequest)
		return
	}
	opts, em, ok := s.requestOptions(w, r)
	if !ok {
		return
	}
	sc, err := workloads.ParseScenario(spec)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if s.proxy(w, r, experiments.ScenarioKey(opts, sc)) {
		return
	}
	ctx, cancel, ok := s.requestContext(w, r)
	if !ok {
		return
	}
	defer cancel()
	opts.Ctx = ctx
	d, err := experiments.ScenarioResult(opts, sc)
	if err != nil {
		writeError(w, err)
		return
	}
	emit(w, em, d)
}

// writeError maps a dispatch failure onto its HTTP status through the typed
// sentinels exported by internal/experiments — 404 for unknown IDs, 500 for
// recovered driver panics, 504 for an expired request deadline — with 400
// (a bad request: spec, platform, parameter) as the default.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, experiments.ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, experiments.ErrInternal):
		status = http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded):
		// The request's deadline fired mid-evaluation; the work was
		// canceled (or survives for another waiter) and nothing was cached:
		// a sweep stops claiming points, an event-driven run stops at its
		// next epoch boundary. A steady-state scenario cell that had already
		// started is the exception: it completes and is cached.
		w.Header().Set("Retry-After", retryAfter)
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is best-effort.
		status = http.StatusServiceUnavailable
	}
	http.Error(w, err.Error(), status)
}

// requestContext derives the request's evaluation context: the server
// deadline, lowered (never raised) by a timeout= parameter. On a malformed
// parameter it writes a 400 and returns ok=false.
func (s *Server) requestContext(w http.ResponseWriter, r *http.Request) (context.Context, context.CancelFunc, bool) {
	limit := s.cfg.Timeout
	if v := r.URL.Query().Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			http.Error(w, fmt.Sprintf("bad timeout parameter %q (want a positive duration, e.g. 500ms)", v), http.StatusBadRequest)
			return nil, nil, false
		}
		if limit == 0 || d < limit {
			limit = d
		}
	}
	if limit <= 0 {
		return r.Context(), func() {}, true
	}
	ctx, cancel := context.WithTimeout(r.Context(), limit)
	return ctx, cancel, true
}

// requestOptions resolves the request's option overrides and emitter on top
// of the server base; on failure it writes a 400 and returns ok=false.
func (s *Server) requestOptions(w http.ResponseWriter, r *http.Request) (experiments.Options, results.Emitter, bool) {
	opts, em, err := parseQuery(r.URL.Query(), s.cfg.Base)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return opts, nil, false
	}
	return opts, em, true
}

// parseQuery applies a request's option overrides to base and resolves its
// emitter: platform, fidelity, quick, seed and format. Where a key repeats,
// its first value counts. Every error is the client's (a 400).
//
// fastwarm is the retired warmup knob (DESIGN.md §21): a false value is
// accepted and ignored, because coordinators before its retirement pin
// fastwarm=false on every cell fetch; a true value is refused.
func parseQuery(q url.Values, base experiments.Options) (experiments.Options, results.Emitter, error) {
	opts := base
	if q.Has("platform") {
		// Platform names are lowercase in the registry; accept the same
		// spellings the -platform flag does. Presence (not non-emptiness)
		// triggers the override so a coordinator can pin the default
		// Table-1 machine with platform= over a replica's -platform base —
		// the canonical key distinguishes the two.
		opts.Platform = strings.ToLower(q.Get("platform"))
	}
	if v := q.Get("fidelity"); v != "" {
		f, err := experiments.ParseFidelity(v)
		if err != nil {
			return opts, nil, err
		}
		opts.Fidelity = f
	}
	if v := q.Get("quick"); v != "" {
		on, err := strconv.ParseBool(v)
		if err != nil {
			return opts, nil, fmt.Errorf("bad quick parameter %q", v)
		}
		opts.Quick = on
	}
	if v := q.Get("fastwarm"); v != "" {
		on, err := strconv.ParseBool(v)
		if err != nil {
			return opts, nil, fmt.Errorf("bad fastwarm parameter %q", v)
		}
		if on {
			return opts, nil, errors.New("fastwarm is retired: every run uses the exact warmup; use fidelity=auto for a fast, labelled estimate")
		}
	}
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return opts, nil, fmt.Errorf("bad seed parameter %q", v)
		}
		opts.Seed = seed
	}
	format := q.Get("format")
	if format == "" {
		format = defaultFormat
	}
	em, err := results.Lookup(format)
	if err != nil {
		return opts, nil, err
	}
	return opts, em, nil
}

// maxPooledBuffer caps the capacity of a response buffer returned to
// bufferPool, so one unusually large response does not pin its memory for
// the life of the pool.
const maxPooledBuffer = 1 << 20

// bufferPool recycles response buffers across requests; it holds *[]byte so
// Put does not allocate.
var bufferPool = sync.Pool{New: func() any { return new([]byte) }}

// writeBuffered renders the whole response body into a pooled buffer
// before writing anything, so a rendering failure becomes a 500 instead of
// a silent 200 with a partial body, and the Content-Type is only set once
// the bytes exist. The body goes out in one Write with its Content-Length,
// never chunked. render appends to the buffer it is given; the buffer
// returns to the pool once the write has copied it out.
func writeBuffered(w http.ResponseWriter, contentType string, render func(dst []byte) ([]byte, error)) {
	bp := bufferPool.Get().(*[]byte)
	out, err := render((*bp)[:0])
	if err != nil {
		putBuffer(bp, *bp)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("Content-Length", strconv.Itoa(len(out)))
	_, _ = w.Write(out)
	putBuffer(bp, out)
}

// putBuffer returns a response buffer to bufferPool as out, its latest
// contents, unless it outgrew maxPooledBuffer. Call it only once the bytes
// have been written.
func putBuffer(bp *[]byte, out []byte) {
	if cap(out) <= maxPooledBuffer {
		*bp = out
		bufferPool.Put(bp)
	}
}

// appendIndentedJSON appends v as two-space-indented JSON plus a newline —
// the bytes json.Encoder with SetIndent("", "  ") writes — for the
// reflective endpoints (/v1/experiments, /v1/trace).
func appendIndentedJSON(dst []byte, v any) ([]byte, error) {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return dst, err
	}
	return append(append(dst, out...), '\n'), nil
}

// emit renders the dataset through the chosen emitter and writes it with
// its content type, via the buffered path (e.g. a NaN cell the JSON encoder
// rejects must 500, not 200-empty).
func emit(w http.ResponseWriter, em results.Emitter, d *results.Dataset) {
	// The dataset is shared with the memo cache; emitters never mutate it.
	writeBuffered(w, em.ContentType(), func(dst []byte) ([]byte, error) { return em.Append(dst, d) })
}

// methodGet rejects non-GET requests with 405.
func methodGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return false
	}
	return true
}
