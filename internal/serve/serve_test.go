package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"cxlmem/internal/experiments"
	"cxlmem/internal/results"
	"cxlmem/internal/workloads"
)

// testServer starts the handler over quick, serial base options.
func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	base := experiments.DefaultOptions()
	base.Quick = true
	base.Parallel = 1
	ts := httptest.NewServer(NewServer(Config{Base: base}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// get fetches a path and returns status, content type and body.
func get(t *testing.T, ts *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// TestExperimentsEndpoint checks the catalog: every registered ID, the
// emitter formats and the platform registry.
func TestExperimentsEndpoint(t *testing.T) {
	ts := testServer(t)
	status, ctype, body := get(t, ts, "/v1/experiments")
	if status != http.StatusOK || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("status %d, content-type %s", status, ctype)
	}
	var c struct {
		Experiments []struct{ ID, Desc string } `json:"experiments"`
		Formats     []string                    `json:"formats"`
		Platforms   []string                    `json:"platforms"`
	}
	if err := json.Unmarshal([]byte(body), &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Experiments) != len(experiments.IDs()) {
		t.Errorf("catalog lists %d experiments, registry has %d", len(c.Experiments), len(experiments.IDs()))
	}
	if len(c.Formats) != 3 || c.Formats[0] != "text" {
		t.Errorf("formats = %v", c.Formats)
	}
	if len(c.Platforms) < 4 {
		t.Errorf("platforms = %v", c.Platforms)
	}
}

// TestRunEndpoint fetches one experiment in every format and checks the
// JSON decodes back to a typed dataset.
func TestRunEndpoint(t *testing.T) {
	ts := testServer(t)
	status, ctype, body := get(t, ts, "/v1/run?id=table2")
	if status != http.StatusOK || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("default format: status %d, content-type %s", status, ctype)
	}
	d, err := results.ParseJSON([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if d.ID != "table2" || len(d.Rows) == 0 {
		t.Errorf("served dataset = %s with %d rows", d.ID, len(d.Rows))
	}
	if !d.Prov.Quick {
		t.Error("server base options should stamp quick provenance")
	}

	status, ctype, body = get(t, ts, "/v1/run?id=table2&format=text")
	if status != http.StatusOK || !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("text format: status %d, content-type %s", status, ctype)
	}
	if !strings.HasPrefix(body, "== table2:") {
		t.Errorf("text body = %q", body[:40])
	}

	status, ctype, _ = get(t, ts, "/v1/run?id=table2&format=csv")
	if status != http.StatusOK || !strings.HasPrefix(ctype, "text/csv") {
		t.Fatalf("csv format: status %d, content-type %s", status, ctype)
	}
}

// TestRunEndpointErrors pins the failure modes: missing/unknown id, bad
// format, bad platform, bad boolean, a scenario knob past its limit, wrong
// method.
func TestRunEndpointErrors(t *testing.T) {
	ts := testServer(t)
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/v1/run", http.StatusBadRequest},
		{"/v1/run?id=fig99", http.StatusNotFound},
		{"/v1/run?id=table2&format=yaml", http.StatusBadRequest},
		{"/v1/run?id=matrix-apps&platform=atari2600", http.StatusBadRequest},
		{"/v1/run?id=table2&quick=maybe", http.StatusBadRequest},
		{"/v1/run?id=table2&seed=banana", http.StatusBadRequest},
		{"/v1/scenario", http.StatusBadRequest},
		{"/v1/scenario?spec=nope", http.StatusBadRequest},
		{"/v1/scenario?spec=ycsb/flavor=mild", http.StatusBadRequest},
		{"/v1/scenario?spec=kvstore/size=8T", http.StatusBadRequest},
		{"/v1/scenario?spec=kvstore/ops=2000000000", http.StatusBadRequest},
		{"/v1/scenario?spec=tpp-timeline/qps=200001", http.StatusBadRequest},
	} {
		if status, _, body := get(t, ts, tc.path); status != tc.want {
			t.Errorf("GET %s = %d (%s), want %d", tc.path, status, strings.TrimSpace(body), tc.want)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/run?id=table2", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST = %d, want 405", resp.StatusCode)
	}
}

// TestScenarioEndpoint fetches one scenario cell and checks the metric
// dataset shape and provenance.
func TestScenarioEndpoint(t *testing.T) {
	ts := testServer(t)
	status, _, body := get(t, ts, "/v1/scenario?spec=fluid/policy=interleave/size=64M")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	d, err := results.ParseJSON([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if d.Prov.Scenario == "" || len(d.Rows) == 0 {
		t.Errorf("scenario dataset = %+v", d)
	}
	if d.Rows[0][0].Text() != "system_bw" {
		t.Errorf("primary metric = %q", d.Rows[0][0].Text())
	}
}

// TestSeedZeroIsTheDefaultSeed: seed=0 means the default seed 1 on every
// endpoint, as -seed 0 does in cxlbench. fig6b answers seed 1's bytes, the
// same bytes cxlbench -seed 0 -format json prints; tpp-timeline at seed=0,
// then at seed=1, is one dataset lookup that leaves an entry and then a hit
// on it; the provenance says seed 1 for datasets and scenario cells alike.
func TestSeedZeroIsTheDefaultSeed(t *testing.T) {
	ts := testServer(t)
	body := func(path string) string {
		t.Helper()
		status, _, b := get(t, ts, path)
		if status != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, status, b)
		}
		return b
	}
	cli, err := experiments.Options{Quick: true}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	d, err := experiments.RunDataset("fig6b", cli)
	if err != nil {
		t.Fatal(err)
	}
	want, err := results.Emit(d, "json")
	if err != nil {
		t.Fatal(err)
	}
	if zero, one := body("/v1/run?id=fig6b&seed=0"), body("/v1/run?id=fig6b&seed=1"); zero != one || zero != want {
		t.Errorf("fig6b: seed=0, seed=1 and the resolved seed 0 of the CLI differ:\n%s\n%s\n%s", zero, one, want)
	}

	before, _ := experiments.CacheStats()
	zero := body("/v1/run?id=tpp-timeline&seed=0")
	mid, _ := experiments.CacheStats()
	one := body("/v1/run?id=tpp-timeline&seed=1")
	after, _ := experiments.CacheStats()
	if mid.Hits+mid.Misses != before.Hits+before.Misses+1 || after.Hits != mid.Hits+1 || after.Misses != mid.Misses {
		t.Errorf("tpp-timeline seed=0 then seed=1: dataset cache %+v → %+v → %+v, want one lookup then a hit on it", before, mid, after)
	}
	for _, b := range []string{zero, one, body("/v1/scenario?spec=kvstore/policy=cxl&seed=0")} {
		p, err := results.ParseJSON([]byte(b))
		if err != nil {
			t.Fatal(err)
		}
		if p.Prov.Seed != 1 {
			t.Errorf("%s provenance seed = %d, want 1", p.ID, p.Prov.Seed)
		}
	}
	if zero != one {
		t.Error("tpp-timeline: seed=0 and seed=1 bodies differ")
	}
	if a, b := body("/v1/scenario?spec=kvstore/policy=cxl&seed=0"), body("/v1/scenario?spec=kvstore/policy=cxl&seed=1"); a != b {
		t.Error("kvstore cell: seed=0 and seed=1 bodies differ")
	}
}

// TestRequestsShareTheirCell: a request's seed fills its spec's unset
// seed= and its platform an unset platform=, the Table-1 platform folds to
// none, and a workload that reads no seed (dlrm) keeps none, so requests
// that fold into one spec share one cell-cache entry. Each pair below costs
// one cell miss and one hit, answers identical csv, and answers json that
// differs only where it names the caller's request: the provenance's seed,
// platform and scenario, and the title, which carries the scenario too. The
// test first evicts every cell an earlier test left resident: a one-entry
// budget keeps only the quick cell run after it.
func TestRequestsShareTheirCell(t *testing.T) {
	experiments.ConfigureCaches(1)
	o := experiments.DefaultOptions()
	o.Quick = true
	sc, err := workloads.ParseScenario("spec/policy=cxl")
	if err == nil {
		_, err = experiments.ScenarioResult(o, sc)
	}
	experiments.ConfigureCaches(0)
	if err != nil {
		t.Fatal(err)
	}
	ts := testServer(t)
	body := func(q string) string {
		t.Helper()
		status, _, b := get(t, ts, "/v1/scenario?"+q)
		if status != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", q, status, b)
		}
		return b
	}
	// requestFree blanks what a cell's json names of the request.
	requestFree := func(js string) string {
		t.Helper()
		d, err := results.ParseJSON([]byte(js))
		if err != nil {
			t.Fatal(err)
		}
		d.Title, d.Prov.Seed, d.Prov.Platform, d.Prov.Scenario = "", 0, "", ""
		out, err := results.Emit(d, "json")
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, pair := range [][2]string{
		{"spec=kvstore/policy=cxl/seed=11&seed=3", "spec=kvstore/policy=cxl/seed=11&seed=4"},
		{"spec=fluid/platform=x16-quad&platform=snc-off", "spec=fluid/platform=x16-quad"},
		{"spec=dsb&seed=5", "spec=dsb/seed=5"},
		{"spec=fluid/policy=interleave", "spec=fluid/policy=interleave/platform=table1"},
		{"spec=dlrm/policy=cxl:63&seed=3", "spec=dlrm/policy=cxl:63&seed=4"},
	} {
		before := cellStats()
		first := body(pair[0] + "&format=csv")
		mid := cellStats()
		second := body(pair[1] + "&format=csv")
		after := cellStats()
		if mid.Misses != before.Misses+1 || mid.Hits != before.Hits || after.Hits != mid.Hits+1 || after.Misses != mid.Misses {
			t.Errorf("%s then %s: cell cache %+v → %+v → %+v, want one miss then a hit", pair[0], pair[1], before, mid, after)
		}
		if first != second {
			t.Errorf("%s and %s answer different csv:\n%s\n%s", pair[0], pair[1], first, second)
		}
		if a, b := requestFree(body(pair[0])), requestFree(body(pair[1])); a != b {
			t.Errorf("%s and %s answer json that differs beyond the request:\n%s\n%s", pair[0], pair[1], a, b)
		}
	}
}

// TestConcurrentRequests exercises the race-tested path of the acceptance
// criteria: 16 concurrent requests — the same experiment in several
// formats, a matrix experiment and scenario cells — all funneling into the
// shared dataset and cell memo caches. Run under -race in CI; the test also
// asserts all same-query responses are byte-identical.
func TestConcurrentRequests(t *testing.T) {
	ts := testServer(t)
	paths := []string{
		"/v1/run?id=fig4a",
		"/v1/run?id=fig4a&format=text",
		"/v1/run?id=fig4a&format=csv",
		"/v1/run?id=matrix-size",
		"/v1/scenario?spec=fluid/policy=interleave/size=64M",
		"/v1/scenario?spec=kvstore/policy=cxl",
		"/v1/experiments",
		"/v1/run?id=table3",
	}
	const perPath = 2 // 16 concurrent requests over 8 distinct queries
	type result struct {
		path   string
		status int
		body   string
	}
	out := make([]result, len(paths)*perPath)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := paths[i%len(paths)]
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				out[i] = result{path: path, status: -1, body: err.Error()}
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			out[i] = result{path: path, status: resp.StatusCode, body: string(body)}
		}(i)
	}
	wg.Wait()
	first := make(map[string]string)
	for _, r := range out {
		if r.status != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", r.path, r.status, r.body)
		}
		if prev, ok := first[r.path]; ok && prev != r.body {
			t.Errorf("concurrent responses for %s diverge", r.path)
		}
		first[r.path] = r.body
	}
}
