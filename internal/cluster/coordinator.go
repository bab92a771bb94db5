// Coordinator fan-out (DESIGN.md §14): shard a list of scenario cells
// across cxlserve replicas over the existing /v1/scenario API and merge the
// per-cell results into one dataset byte-identical to local serial
// execution.
//
// Each cell is routed to the replica that owns its canonical memo key, so
// the fleet's bounded caches stay dedicated to disjoint key ranges and a
// repeated matrix run is served entirely from warm shards. The cells fan
// out through pool.Run (DESIGN.md §34) and write results into
// index-addressed slots, so the merge order is the input order regardless
// of which replica answered first.

package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"cxlmem/internal/experiments"
	"cxlmem/internal/pool"
	"cxlmem/internal/results"
	"cxlmem/internal/workloads"
)

// maxErrorBody bounds how much of a replica's error response the
// coordinator echoes into its own error message.
const maxErrorBody = 512

// hopClient fetches cells; HopTimeout bounds each fetch.
var hopClient = &http.Client{Timeout: HopTimeout}

// Coordinator dispatches scenario cells across a replica ring, four
// concurrent fetches per replica. The zero value is not usable — set Ring
// (a client-side ring over the replica base URLs is enough).
type Coordinator struct {
	// Ring routes each cell to the replica owning its canonical key.
	Ring *Ring
}

// cellQuery pins every fingerprint-relevant option knob onto the query
// string, so the remote cell key — and therefore its bytes — cannot depend
// on the replica's own base flags. The platform parameter is sent even when
// empty: presence pins the default Table-1 machine over a replica's
// -platform base.
func cellQuery(o experiments.Options, spec string) url.Values {
	q := url.Values{}
	q.Set("spec", spec)
	q.Set("format", "json")
	q.Set("quick", strconv.FormatBool(o.Quick))
	q.Set("seed", strconv.FormatUint(o.Seed, 10))
	q.Set("platform", o.Platform)
	return q
}

// fetchCell fetches one evaluated scenario cell from a replica and parses
// it back into its ordered metric list through the lossless wire form.
func (co *Coordinator) fetchCell(ctx context.Context, base string, o experiments.Options, sc workloads.Scenario) (workloads.Metrics, error) {
	spec := sc.String()
	target := strings.TrimSuffix(base, "/") + "/v1/scenario?" + cellQuery(o, spec).Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return workloads.Metrics{}, fmt.Errorf("cluster: cell %q: %w", spec, err)
	}
	resp, err := hopClient.Do(req)
	if err != nil {
		return workloads.Metrics{}, fmt.Errorf("cluster: cell %q via %s: %w", spec, base, err)
	}
	defer resp.Body.Close()
	body, err := ReadReply(nil, resp, MaxReply)
	if err != nil {
		return workloads.Metrics{}, fmt.Errorf("cluster: cell %q via %s: reading response: %w", spec, base, err)
	}
	if resp.StatusCode != http.StatusOK {
		msg := strings.TrimSpace(string(body))
		if len(msg) > maxErrorBody {
			msg = msg[:maxErrorBody] + "..."
		}
		return workloads.Metrics{}, fmt.Errorf("cluster: cell %q via %s: %s: %s", spec, base, resp.Status, msg)
	}
	d, err := results.ParseJSON(body)
	if err != nil {
		return workloads.Metrics{}, fmt.Errorf("cluster: cell %q via %s: %w", spec, base, err)
	}
	m, err := workloads.MetricsFromDataset(d)
	if err != nil {
		return workloads.Metrics{}, fmt.Errorf("cluster: cell %q via %s: %w", spec, base, err)
	}
	return m, nil
}

// ScenarioCells evaluates every scenario on the fleet — each cell on the
// replica owning its canonical key, four fetches at a time per replica —
// and returns the metrics in input order. The first fetch error, or ctx
// ending before every cell is fetched, cancels the remaining fetches and is
// returned with no metrics.
func (co *Coordinator) ScenarioCells(ctx context.Context, o experiments.Options, scs []workloads.Scenario) ([]workloads.Metrics, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	out := make([]workloads.Metrics, len(scs))
	if err := pool.Run(ctx, 4*len(co.Ring.Peers()), len(scs), func(ctx context.Context, i int) error {
		var err error
		out[i], err = co.fetchCell(ctx, co.Ring.Owner(experiments.ScenarioKey(o, scs[i])), o, scs[i])
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// ScenarioDataset is the distributed ScenarioDataset: it fans the cells out
// across the fleet and assembles the merged dataset through the same row
// construction as local execution — byte-identical output, property-tested
// in the serve suite.
func (co *Coordinator) ScenarioDataset(ctx context.Context, o experiments.Options, id, title string, scs []workloads.Scenario) (*results.Dataset, error) {
	cells, err := co.ScenarioCells(ctx, o, scs)
	if err != nil {
		return nil, err
	}
	return experiments.ScenarioDatasetFromCells(o, id, title, scs, cells), nil
}

// ScenarioResult is the distributed ScenarioResult: ScenarioCells of one
// cell, assembled into the single-cell dataset form.
func (co *Coordinator) ScenarioResult(ctx context.Context, o experiments.Options, sc workloads.Scenario) (*results.Dataset, error) {
	cells, err := co.ScenarioCells(ctx, o, []workloads.Scenario{sc})
	if err != nil {
		return nil, err
	}
	return experiments.ScenarioResultFromCell(o, sc, cells[0]), nil
}
