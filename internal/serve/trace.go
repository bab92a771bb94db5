// The /v1/trace endpoint: cxlserve's window into the discrete-event engine
// (DESIGN.md §13). Each event-driven run records its scheduler's events into
// a private ring and publishes that tail, in one piece, to the process-wide
// telemetry.Sim sink when it completes; this endpoint snapshots the sink as
// JSON, so once `/v1/run?id=tpp-timeline` has answered, a client can read
// back the event stream that produced the dataset. A run still in progress
// is not visible yet.
package serve

import (
	"net/http"
	"strconv"

	"cxlmem/internal/sim"
	"cxlmem/internal/telemetry"
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

// traceResponse is the /v1/trace response shape: cumulative per-phase
// totals, the ring occupancy, and the retained events oldest-first.
type traceResponse struct {
	Enqueued   uint64           `json:"enqueued"`
	Dispatched uint64           `json:"dispatched"`
	Completed  uint64           `json:"completed"`
	Buffered   int              `json:"buffered"`
	Capacity   int              `json:"capacity"`
	Events     []traceEventJSON `json:"events"`
}

// trace answers GET /v1/trace. An optional limit= parameter caps the
// returned events to the most recent N (the totals still cover everything).
// Like /v1/experiments it stays outside the admission gate: it only
// snapshots a ring buffer, and observability must stay reachable while the
// compute gate sheds.
func (s *Server) trace(w http.ResponseWriter, r *http.Request) {
	if !methodGet(w, r) {
		return
	}
	limit := -1
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "bad limit parameter "+strconv.Quote(v)+" (want a non-negative integer)", http.StatusBadRequest)
			return
		}
		limit = n
	}
	events := telemetry.Sim.Snapshot()
	totals := telemetry.Sim.Totals()
	resp := traceResponse{
		Enqueued:   totals.Enqueued,
		Dispatched: totals.Dispatched,
		Completed:  totals.Completed,
		Buffered:   len(events),
		Capacity:   telemetry.Sim.Cap(),
	}
	if limit >= 0 && len(events) > limit {
		events = events[len(events)-limit:]
	}
	resp.Events = make([]traceEventJSON, len(events))
	for i, te := range events {
		resp.Events[i] = traceEventJSON{
			Phase: te.Phase.String(),
			Seq:   te.Seq,
			AtPS:  int64(te.At),
			NowPS: int64(te.Now),
			Actor: te.Actor,
			Kind:  te.Kind,
		}
	}
	writeBuffered(w, "application/json", func(dst []byte) ([]byte, error) {
		return appendIndentedJSON(dst, resp)
	})
}

// simTraceCounts fetches the per-phase totals for the /metrics exposition.
func simTraceCounts() (sim.TraceCounts, int) {
	return telemetry.Sim.Totals(), telemetry.Sim.Len()
}
