package serve

// Two-replica sharding tests (DESIGN.md §14): proxy routing with the
// single-hop loop guard, local fallback when the owner is down (the
// zero-5xx envelope), the warm-start snapshot endpoint, and the coordinator
// merge's byte-identity against local serial execution. The replicas here
// are two Servers in one process — they share the process-wide memo caches,
// so these tests pin the routing and wire-form properties; the CI smoke
// test exercises two real processes with genuinely disjoint caches.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cxlmem/internal/cluster"
	"cxlmem/internal/experiments"
	"cxlmem/internal/memo"
	"cxlmem/internal/results"
	"cxlmem/internal/workloads"
)

// replicaPair is a two-member ring of in-process servers.
type replicaPair struct {
	a, b   *httptest.Server
	sa, sb *Server
}

// newReplicaPair boots two replicas whose rings reference each other. The
// handlers delegate through a late-bound pointer because each ring needs
// the other server's URL, which only exists after httptest.NewServer.
func newReplicaPair(t *testing.T) *replicaPair {
	t.Helper()
	base := experiments.DefaultOptions()
	base.Quick = true
	base.Parallel = 1
	var (
		mu     sync.Mutex
		ha, hb http.Handler
	)
	late := func(h *http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			hh := *h
			mu.Unlock()
			hh.ServeHTTP(w, r)
		})
	}
	tsa := httptest.NewServer(late(&ha))
	t.Cleanup(tsa.Close)
	tsb := httptest.NewServer(late(&hb))
	t.Cleanup(tsb.Close)
	ra, err := cluster.NewRing(tsa.URL, []string{tsb.URL})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := cluster.NewRing(tsb.URL, []string{tsa.URL})
	if err != nil {
		t.Fatal(err)
	}
	sa := NewServer(Config{Base: base, Ring: ra})
	sb := NewServer(Config{Base: base, Ring: rb})
	mu.Lock()
	ha, hb = sa.Handler(), sb.Handler()
	mu.Unlock()
	return &replicaPair{a: tsa, b: tsb, sa: sa, sb: sb}
}

// testCells returns n matrix cells that split across the two-member ring:
// the first n, unless the replicas' ports (httptest picks them at random)
// hash all of those to one owner — then the last gives way to the first
// later cell the other replica owns.
func testCells(t *testing.T, p *replicaPair, n int) []workloads.Scenario {
	t.Helper()
	o := experiments.DefaultOptions()
	o.Quick = true
	ring, err := cluster.NewRing("", []string{p.a.URL, p.b.URL})
	if err != nil {
		t.Fatal(err)
	}
	all := experiments.AllMatrixScenarios()
	if len(all) < n {
		t.Fatalf("matrix has %d cells, want >= %d", len(all), n)
	}
	owner := func(sc workloads.Scenario) string { return ring.Owner(experiments.ScenarioKey(o, sc)) }
	cells := append([]workloads.Scenario(nil), all[:n]...)
	first := owner(cells[0])
	for _, sc := range cells[1:] {
		if owner(sc) != first {
			return cells
		}
	}
	for _, sc := range all[n:] {
		if owner(sc) != first {
			cells[n-1] = sc
			return cells
		}
	}
	t.Fatalf("all %d matrix cells hash to one replica", len(all))
	return nil
}

// metricValue extracts one counter value from a /metrics scrape.
func metricValue(t *testing.T, body, name string) string {
	t.Helper()
	m := regexp.MustCompile("(?m)^" + regexp.QuoteMeta(name) + " (\\d+)$").FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("metric %s missing from scrape:\n%s", name, body)
	}
	return m[1]
}

// TestShardedProxyServesEveryCell pins the sharded serving path: every cell
// fetched through one replica answers 200 with bytes identical to fetching
// it from the other replica, non-owned cells are forwarded exactly one hop,
// and the proxy counters account for the traffic.
func TestShardedProxyServesEveryCell(t *testing.T) {
	p := newReplicaPair(t)
	cells := testCells(t, p, 8)
	for _, sc := range cells {
		path := "/v1/scenario?spec=" + sc.String() + "&quick=true"
		sa, _, ba := get(t, p.a, path)
		sb, _, bb := get(t, p.b, path)
		if sa != http.StatusOK || sb != http.StatusOK {
			t.Fatalf("%s: status %d via a, %d via b", sc, sa, sb)
		}
		if ba != bb {
			t.Errorf("%s: replicas serve different bytes", sc)
		}
	}
	_, _, ma := get(t, p.a, "/metrics")
	_, _, mb := get(t, p.b, "/metrics")
	fwdA := metricValue(t, ma, `cxlserve_proxy_requests_total{result="forwarded"}`)
	fwdB := metricValue(t, mb, `cxlserve_proxy_requests_total{result="forwarded"}`)
	rcvA := metricValue(t, ma, `cxlserve_proxy_requests_total{result="received"}`)
	rcvB := metricValue(t, mb, `cxlserve_proxy_requests_total{result="received"}`)
	if fwdA == "0" || fwdB == "0" {
		t.Errorf("both replicas should forward their non-owned cells (a=%s b=%s)", fwdA, fwdB)
	}
	if fwdA != rcvB || fwdB != rcvA {
		t.Errorf("hop accounting mismatch: a fwd=%s/rcv=%s, b fwd=%s/rcv=%s", fwdA, rcvA, fwdB, rcvB)
	}
	if errA := metricValue(t, ma, `cxlserve_proxy_requests_total{result="error"}`); errA != "0" {
		t.Errorf("replica a recorded %s proxy errors with both replicas up", errA)
	}
}

// TestProxyLoopGuard pins the single-hop contract: a request already
// carrying the proxy header is served where it lands even when this replica
// does not own its key.
func TestProxyLoopGuard(t *testing.T) {
	p := newReplicaPair(t)
	o := experiments.DefaultOptions()
	o.Quick = true
	ring, err := cluster.NewRing("", []string{p.a.URL, p.b.URL})
	if err != nil {
		t.Fatal(err)
	}
	// Find a cell replica a does NOT own, then hand it to a pre-stamped.
	var sc workloads.Scenario
	found := false
	for _, c := range experiments.AllMatrixScenarios() {
		if ring.Owner(experiments.ScenarioKey(o, c)) == p.b.URL {
			sc, found = c, true
			break
		}
	}
	if !found {
		t.Fatal("no cell owned by replica b")
	}
	req, err := http.NewRequest(http.MethodGet, p.a.URL+"/v1/scenario?spec="+sc.String()+"&quick=true", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(proxyHeader, "test-origin")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("guarded request answered %d", resp.StatusCode)
	}
	_, _, m := get(t, p.a, "/metrics")
	if metricValue(t, m, `cxlserve_proxy_requests_total{result="received"}`) == "0" {
		t.Error("loop-guarded request not counted as received")
	}
	if metricValue(t, m, `cxlserve_proxy_requests_total{result="forwarded"}`) != "0" {
		t.Error("loop-guarded request was re-forwarded")
	}
}

// TestProxyFallbackOnDeadPeer pins the robustness envelope: with the owning
// replica down, every request still answers 200 from local computation and
// the failures surface only as error-result proxy counters — never a 5xx.
func TestProxyFallbackOnDeadPeer(t *testing.T) {
	base := experiments.DefaultOptions()
	base.Quick = true
	base.Parallel = 1
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // the address is now refused: a crashed peer
	var (
		mu sync.Mutex
		h  http.Handler
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hh := h
		mu.Unlock()
		hh.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	ring, err := cluster.NewRing(ts.URL, []string{deadURL})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(Config{Base: base, Ring: ring})
	mu.Lock()
	h = s.Handler()
	mu.Unlock()
	// The ring hashes the test servers' random ports, so pick the cells by
	// owner: six matrix cells, at least one of them the dead peer's.
	all := experiments.AllMatrixScenarios()
	cells := append([]workloads.Scenario(nil), all[:6]...)
	deadOwned := func(sc workloads.Scenario) bool { return !ring.Owns(experiments.ScenarioKey(base, sc)) }
	if !slices.ContainsFunc(cells, deadOwned) {
		i := slices.IndexFunc(all[6:], deadOwned)
		if i < 0 {
			t.Fatalf("all %d matrix cells hash to the live replica", len(all))
		}
		cells[5] = all[6+i]
	}
	hops := 0
	for _, sc := range cells {
		if deadOwned(sc) {
			hops++
		}
		status, _, _ := get(t, ts, "/v1/scenario?spec="+sc.String()+"&quick=true")
		if status != http.StatusOK {
			t.Fatalf("%s: status %d with the peer down; fallback must keep serving", sc, status)
		}
	}
	_, _, m := get(t, ts, "/metrics")
	if got := metricValue(t, m, `cxlserve_proxy_requests_total{result="error"}`); got != strconv.Itoa(hops) {
		t.Errorf("%s proxy errors for %d dead-peer hops; each failed hop counts once", got, hops)
	}
}

// TestCoordinatorMatrixByteIdentical is the fan-out acceptance test: the
// coordinator's distributed matrix dataset must emit byte-identically to
// local serial execution in every format — the property that makes remote
// dispatch a pure performance decision.
func TestCoordinatorMatrixByteIdentical(t *testing.T) {
	p := newReplicaPair(t)
	o := experiments.DefaultOptions()
	o.Quick = true
	o.Parallel = 1
	cells := testCells(t, p, 10)
	const id, title = "matrix-all", "full scenario matrix: workload x policy x size"
	local, err := experiments.ScenarioDataset(o, id, title, cells)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := cluster.NewRing("", []string{p.a.URL, p.b.URL})
	if err != nil {
		t.Fatal(err)
	}
	co := &cluster.Coordinator{Ring: ring}
	remote, err := co.ScenarioDataset(context.Background(), o, id, title, cells)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"text", "json", "csv"} {
		want, err := results.Emit(local, format)
		if err != nil {
			t.Fatal(err)
		}
		got, err := results.Emit(remote, format)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("remote %s emission diverges from local serial execution:\n--- local ---\n%s\n--- remote ---\n%s", format, want, got)
		}
	}
	// Single-cell dispatch must match ScenarioResult the same way.
	localOne, err := experiments.ScenarioResult(o, cells[0])
	if err != nil {
		t.Fatal(err)
	}
	remoteOne, err := co.ScenarioResult(context.Background(), o, cells[0])
	if err != nil {
		t.Fatal(err)
	}
	want, err := results.Emit(localOne, "json")
	if err != nil {
		t.Fatal(err)
	}
	got, err := results.Emit(remoteOne, "json")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Error("remote single-cell result diverges from local ScenarioResult")
	}
}

// TestSnapshotEndpoint pins the warm-start wire: after computing one
// experiment, GET /v1/snapshot returns a snapshot a fresh cache restores
// the dataset from, and the restored-entries gauge surfaces on /metrics.
func TestSnapshotEndpoint(t *testing.T) {
	base := experiments.DefaultOptions()
	base.Quick = true
	base.Parallel = 1
	s := NewServer(Config{Base: base, SnapshotRestored: 3})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if status, _, _ := get(t, ts, "/v1/run?id=table2"); status != http.StatusOK {
		t.Fatalf("priming run answered %d", status)
	}
	status, ctype, body := get(t, ts, "/v1/snapshot")
	if status != http.StatusOK || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("snapshot: status %d, content-type %s", status, ctype)
	}
	n, err := experiments.ImportDatasetCacheInto(memo.NewCache(), []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("snapshot restored no entries after a priming run")
	}
	_, _, m := get(t, ts, "/metrics")
	if got := metricValue(t, m, "cxlserve_snapshot_restored_entries"); got != "3" {
		t.Errorf("cxlserve_snapshot_restored_entries = %s, want 3", got)
	}
}
