package main

import (
	"fmt"
	"net/url"
	"strconv"
	"sync"

	"cxlmem/internal/experiments"
	"cxlmem/internal/results"
	"cxlmem/internal/workloads"
)

// goldenExt maps an emitter name to its golden file extension.
var goldenExt = map[string]string{"text": "txt", "json": "json", "csv": "csv"}

// query is a parsed /v1/run or /v1/scenario request path, resolved the way
// a `cxlserve -quick -parallel 1` daemon resolves it.
type query struct {
	id       string // set for /v1/run
	scenario *workloads.Scenario
	opts     experiments.Options
	format   string
}

// parseQuery resolves a request path.
func parseQuery(path string) (query, error) {
	u, err := url.Parse(path)
	if err != nil {
		return query{}, err
	}
	v := u.Query()
	q := query{opts: experiments.DefaultOptions(), format: v.Get("format")}
	q.opts.Quick, q.opts.Parallel = true, 1
	if q.format == "" {
		q.format = "json" // cxlserve's default
	}
	if s := v.Get("seed"); s != "" {
		if q.opts.Seed, err = strconv.ParseUint(s, 10, 64); err != nil {
			return query{}, fmt.Errorf("%s: %w", path, err)
		}
	}
	switch u.Path {
	case "/v1/run":
		q.id = v.Get("id")
	case "/v1/scenario":
		sc, err := workloads.ParseScenario(v.Get("spec"))
		if err != nil {
			return query{}, err
		}
		q.scenario = &sc
	default:
		return query{}, fmt.Errorf("no reference for %s", path)
	}
	return q, nil
}

// memoKey is the canonical key cxlserve shards the request by.
func (q query) memoKey() (string, error) {
	if q.scenario != nil {
		return experiments.ScenarioKey(q.opts, *q.scenario), nil
	}
	return experiments.DatasetKey(q.id, q.opts)
}

// reference returns the bytes cxlserve must answer path with: its golden
// file when the corpus pins one, otherwise the in-process result of the
// same experiment or scenario through the same emitter.
func (h *harness) reference(path string) ([]byte, error) {
	q, err := parseQuery(path)
	if err != nil {
		return nil, err
	}
	if q.id != "" && q.opts.Seed == experiments.DefaultOptions().Seed {
		if g, ok := h.golden[q.id+"."+goldenExt[q.format]]; ok {
			return g, nil
		}
	}
	var d *results.Dataset
	if q.scenario != nil {
		d, err = experiments.ScenarioResult(q.opts, *q.scenario)
	} else {
		d, err = experiments.RunDataset(q.id, q.opts)
	}
	if err != nil {
		return nil, fmt.Errorf("reference for %s: %w", path, err)
	}
	s, err := results.Emit(d, q.format)
	return []byte(s), err
}

// references computes the reference of every path on `clients` goroutines.
func (h *harness) references(paths []string) ([][]byte, error) {
	refs := make([][]byte, len(paths))
	errs := make([]error, len(paths))
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(paths) {
					return
				}
				refs[i], errs[i] = h.reference(paths[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return refs, nil
}
