// The /v1/trace endpoint: cxlserve's window into the discrete-event engine
// (DESIGN.md §13). No run records a trace unless a client asks for one.
// /v1/trace takes the query of the response being explained —
// id=tpp-timeline, or a spec= whose workload is event-driven, with the same
// seed, quick and platform overrides as /v1/run and /v1/scenario — and
// replays that one run with a ring of limit= events attached. A run is a
// pure function of its memo key and the scheduler is deterministic, so the
// replay is exactly the event stream behind the response the client holds.
package serve

import (
	"net/http"
	"strconv"

	"cxlmem/internal/experiments"
	"cxlmem/internal/sim"
	"cxlmem/internal/workloads"
)

// The replay ring's capacity, limit=: 4096 events unless the request asks
// for another, and at most 65,536 (4 MiB at 64 bytes an event).
const (
	defaultTraceLimit = 4096
	maxTraceLimit     = 1 << 16
)

// traceEventJSON is the wire form of one sim.TraceEvent. Times are exported
// in integer picoseconds — the engine's native unit — so the stream stays
// lossless and byte-stable.
type traceEventJSON struct {
	Phase string `json:"phase"`
	Seq   uint64 `json:"seq"`
	AtPS  int64  `json:"at_ps"`
	NowPS int64  `json:"now_ps"`
	Actor string `json:"actor"`
	Kind  string `json:"kind"`
}

// traceResponse is the /v1/trace response shape: the run's per-phase
// totals, the ring occupancy and capacity, and the retained events (the
// run's last limit= events) oldest-first.
type traceResponse struct {
	Enqueued   uint64           `json:"enqueued"`
	Dispatched uint64           `json:"dispatched"`
	Completed  uint64           `json:"completed"`
	Buffered   int              `json:"buffered"`
	Capacity   int              `json:"capacity"`
	Events     []traceEventJSON `json:"events"`
}

// trace answers GET /v1/trace by replaying the run named by id= or spec=.
// It computes, so it sits behind the admission gate and the request
// deadline; it always runs locally, because it neither reads nor fills a
// memo cache and so has no owner to proxy to.
func (s *Server) trace(w http.ResponseWriter, r *http.Request) {
	if !methodGet(w, r) {
		return
	}
	q := r.URL.Query()
	limit := defaultTraceLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > maxTraceLimit {
			http.Error(w, "bad limit parameter "+strconv.Quote(v)+" (want 1.."+strconv.Itoa(maxTraceLimit)+")", http.StatusBadRequest)
			return
		}
		limit = n
	}
	id, spec := q.Get("id"), q.Get("spec")
	if (id == "") == (spec == "") {
		http.Error(w, "want exactly one of id= (e.g. id=tpp-timeline) or spec= (an event-driven scenario)", http.StatusBadRequest)
		return
	}
	opts, _, ok := s.requestOptions(w, r)
	if !ok {
		return
	}
	ctx, cancel, ok := s.requestContext(w, r)
	if !ok {
		return
	}
	defer cancel()
	opts.Ctx = ctx
	ring := sim.NewTraceRing(limit)
	var err error
	if id != "" {
		err = experiments.TraceDataset(id, opts, ring)
	} else {
		var sc workloads.Scenario
		if sc, err = workloads.ParseScenario(spec); err == nil {
			err = experiments.TraceScenario(opts, sc, ring)
		}
	}
	if err != nil {
		writeError(w, err)
		return
	}
	totals := ring.Totals()
	resp := traceResponse{
		Enqueued:   totals.Enqueued,
		Dispatched: totals.Dispatched,
		Completed:  totals.Completed,
		Buffered:   ring.Len(),
		Capacity:   ring.Cap(),
		Events:     make([]traceEventJSON, 0, ring.Len()),
	}
	for _, te := range ring.Snapshot() {
		resp.Events = append(resp.Events, traceEventJSON{
			Phase: te.Phase.String(),
			Seq:   te.Seq,
			AtPS:  int64(te.At),
			NowPS: int64(te.Now),
			Actor: te.Actor,
			Kind:  te.Kind,
		})
	}
	writeBuffered(w, "application/json", func(dst []byte) ([]byte, error) {
		return appendIndentedJSON(dst, resp)
	})
}
