package experiments

// Warm-start snapshot tests (DESIGN.md §14): the dataset cache must survive
// a serialize/deserialize round trip with byte-identical emissions in every
// format, including while eviction churns the cache underneath — the
// process-restart story cxlserve's -snapshot-load flag implements.

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"cxlmem/internal/memo"
	"cxlmem/internal/results"
	"cxlmem/internal/workloads"
)

// TestSnapshotRoundTripUnderEviction is the warm-start acceptance test:
// with the process caches squeezed to a 4-entry budget (a fraction of the
// golden corpus), every registered experiment is run, exported through
// ExportDatasetCache, and restored into a fresh process-shape cache — where
// the just-run dataset must be resident (it was MRU at export), must serve
// without recompute, and must emit byte-identically in every format, text
// matching the committed golden.
func TestSnapshotRoundTripUnderEviction(t *testing.T) {
	ConfigureCaches(4)
	defer ConfigureCaches(0)
	o := DefaultOptions()
	o.Quick = true
	o.Parallel = 2
	covered := 0
	for _, e := range All() {
		d, err := RunDataset(e.ID, o)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		data, err := ExportDatasetCache()
		if err != nil {
			t.Fatalf("%s: export: %v", e.ID, err)
		}
		fresh := memo.NewCache()
		n, err := ImportDatasetCacheInto(fresh, data)
		if err != nil {
			t.Fatalf("%s: import: %v", e.ID, err)
		}
		if n == 0 || n > 4 {
			t.Fatalf("%s: restored %d entries, want 1..4 under a 4-entry budget", e.ID, n)
		}
		key, err := DatasetKey(e.ID, o)
		if err != nil {
			t.Fatal(err)
		}
		recomputed := false
		v, err := fresh.Do(key, func() (any, error) { recomputed = true; return nil, nil })
		if err != nil {
			t.Fatalf("%s: restored lookup: %v", e.ID, err)
		}
		if recomputed {
			t.Fatalf("%s: just-run dataset missing from its own snapshot (key %s)", e.ID, key)
		}
		rd := v.(*results.Dataset)
		for _, format := range []string{"text", "json", "csv"} {
			want, err := results.Emit(d, format)
			if err != nil {
				t.Fatal(err)
			}
			got, err := results.Emit(rd, format)
			if err != nil {
				t.Fatalf("%s: emitting restored dataset as %s: %v", e.ID, format, err)
			}
			if got != want {
				t.Errorf("%s: restored %s emission diverges from the original", e.ID, format)
			}
		}
		golden, err := os.ReadFile(goldenPath(e.ID))
		if err != nil {
			t.Fatal(err)
		}
		if got := rd.Render(); got != string(golden) {
			t.Errorf("%s: restored text rendering diverges from the committed golden", e.ID)
		}
		covered++
	}
	if covered < 27 {
		t.Errorf("round-tripped %d experiments, want the full corpus (>= 27)", covered)
	}
	ds, _ := CacheStats()
	if ds.Evictions == 0 {
		t.Error("dataset cache never evicted under the 4-entry budget — the test lost its pressure")
	}
}

// TestImportRejectsBadSnapshots pins the failure envelope of the restore
// path: corrupt JSON, a wrong schema version, a foreign cache name, an
// entry measured under the retired fastwarm warmup (DESIGN.md §21), which
// would otherwise be re-served labelled exact, and an entry whose key is
// not the one its dataset's provenance derives (table2's bytes under
// table1's key, seed-consuming fig6b's under another seed's key, a
// scenario cell under an experiment's key), which would serve one result as
// another. All fail cleanly without touching the cache. A seed-blind
// dataset under another seed's request key is the positive control: that
// request shares the default seed's key, so table1's entry restores.
func TestImportRejectsBadSnapshots(t *testing.T) {
	o := quickOpts()
	key := func(id string, o Options) string {
		k, err := DatasetKey(id, o)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	run := func(id string) *results.Dataset {
		d, err := RunDataset(id, o)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	// entry wraps d, keyed by key, in a one-entry snapshot.
	entry := func(key string, d *results.Dataset) string {
		out, err := results.Emit(d, "json")
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(snapshotFile{Schema: snapshotSchemaVersion, Cache: "dataset",
			Entries: []memo.SnapshotEntry{{Key: key, Value: json.RawMessage(out)}}})
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	sc, err := workloads.ParseScenario("fluid/policy=interleave/size=64M")
	if err != nil {
		t.Fatal(err)
	}
	cell, err := ScenarioResult(o, sc)
	if err != nil {
		t.Fatal(err)
	}
	reseeded := o
	reseeded.Seed = 7
	for _, tc := range []struct {
		name, data string
	}{
		{"corrupt", "{not json"},
		{"schema", `{"schema": 99, "cache": "dataset", "entries": []}`},
		{"cache", `{"schema": 1, "cache": "cell", "entries": []}`},
		{"fastwarm", `{"schema": 1, "cache": "dataset", "entries": [{"key": "experiment|fig4a|quick=true|fastwarm=true|seed=1|platform=|fidelity=exact",
			"value": {"schema": 1, "id": "fig4a", "rows": [], "notes": [], "provenance": {"experiment": "fig4a", "quick": true, "fastwarmup": true, "seed": 1}}}]}`},
		{"table1 keying table2", entry(key("table1", o), run("table2"))},
		{"seed 7 keying seed 1", entry(key("fig6b", reseeded), run("fig6b"))},
		{"table1 keying a scenario cell", entry(key("table1", o), cell)},
	} {
		fresh := memo.NewCache()
		if _, err := ImportDatasetCacheInto(fresh, []byte(tc.data)); err == nil {
			t.Errorf("%s snapshot imported without error", tc.name)
		}
		if size := fresh.Stats().Size; size != 0 {
			t.Errorf("%s snapshot left %d entries resident", tc.name, size)
		}
	}
	if n, err := ImportDatasetCacheInto(memo.NewCache(), []byte(entry(key("table1", reseeded), run("table1")))); err != nil || n != 1 {
		t.Errorf("table1 under the seed-7 request's key = %d, %v; want it restored", n, err)
	}
}

// TestImportSnapshotWithFreq restores a snapshot written before the memo
// caches dropped their hit-frequency counters (testdata/snapshot-freq.json,
// four quick datasets whose entries carry "freq"): every entry restores,
// serves without recompute, and re-exports to the same envelope with only
// the freq lines gone.
func TestImportSnapshotWithFreq(t *testing.T) {
	data, err := os.ReadFile("testdata/snapshot-freq.json")
	if err != nil {
		t.Fatal(err)
	}
	var f snapshotFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Entries) != 4 || bytes.Count(data, []byte(`"freq": `)) != 4 {
		t.Fatalf("fixture holds %d entries and %d freq fields, want 4 of each", len(f.Entries), bytes.Count(data, []byte(`"freq": `)))
	}
	fresh := memo.NewCache()
	n, err := ImportDatasetCacheInto(fresh, data)
	if err != nil || n != len(f.Entries) {
		t.Fatalf("import = %d, %v; want all %d entries", n, err, len(f.Entries))
	}
	out, err := exportDatasetCache(fresh)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), `"freq": `) {
			want = append(want, line)
		}
	}
	if string(out) != strings.Join(want, "") {
		t.Errorf("re-export differs from the fixture without its freq lines:\n%s", out)
	}
	for _, e := range f.Entries {
		if _, err := fresh.Do(e.Key, func() (any, error) { t.Errorf("%s recomputed", e.Key); return nil, nil }); err != nil {
			t.Fatal(err)
		}
	}
}

// TestImportSeededSnapshot restores testdata/snapshot-seeded.json, which
// the /v1/snapshot of a build that kept every seed in the dataset key wrote
// after serving quick fig7 at seed 1, fig6b at seed 7 and fig7 at seed 7.
// fig7's seed-7 entry moves to the key every seed now shares, its seed-1
// entry drops as a duplicate and fig6b keeps its seed-7 key. The restored
// cache then serves fig7 at seeds 1 and 7 and fig6b at seed 7 with no
// recompute, byte-identical to fresh runs.
func TestImportSeededSnapshot(t *testing.T) {
	data, err := os.ReadFile("testdata/snapshot-seeded.json")
	if err != nil {
		t.Fatal(err)
	}
	// Safe to swap: top-level tests run sequentially, and a fresh cache
	// keeps entries other tests computed from masking a failed restore.
	saved := datasetCache
	datasetCache = memo.NewCache()
	defer func() { datasetCache = saved }()
	if n, err := ImportDatasetCache(data); err != nil || n != 2 {
		t.Fatalf("import = %d, %v; want 2 entries restored", n, err)
	}
	for _, tc := range []struct {
		id   string
		seed uint64
	}{{"fig7", 1}, {"fig7", 7}, {"fig6b", 7}} {
		o := quickOpts()
		o.Seed = tc.seed
		got, err := RunDataset(tc.id, o)
		if err != nil {
			t.Fatal(err)
		}
		e, err := Get(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		want := e.Run(o)
		for _, format := range []string{"text", "json", "csv"} {
			g, err := results.Emit(got, format)
			if err != nil {
				t.Fatal(err)
			}
			w, err := results.Emit(want, format)
			if err != nil {
				t.Fatal(err)
			}
			if g != w {
				t.Errorf("%s at seed %d: restored %s differs from a fresh run", tc.id, tc.seed, format)
			}
		}
	}
	if st := datasetCache.Stats(); st.Misses != 0 || st.Size != 2 {
		t.Errorf("restored cache %+v: want no miss and the 2 restored entries", st)
	}
}

// TestImportAcceptsEveryProvenanceKey is the other half of the rule: the
// real entry of every registered ID restores, at options off the defaults
// too (another seed, a platform, a fidelity tier), because each dataset's
// provenance derives exactly the key RunDataset cached it under.
func TestImportAcceptsEveryProvenanceKey(t *testing.T) {
	o := quickOpts()
	o.Seed = 7
	o.Platform = "x16-quad"
	o.Fidelity = FidelityAuto
	donor := memo.NewCache()
	for _, e := range All() {
		d, err := RunDataset(e.ID, o)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		key, err := DatasetKey(e.ID, o)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := donor.Do(key, func() (any, error) { return d, nil }); err != nil {
			t.Fatal(err)
		}
	}
	export, err := exportDatasetCache(donor)
	if err != nil {
		t.Fatal(err)
	}
	n, err := ImportDatasetCacheInto(memo.NewCache(), export)
	if err != nil || n != len(All()) {
		t.Fatalf("restored %d of %d entries: %v", n, len(All()), err)
	}
}

// FuzzImportDatasetCache feeds the snapshot restore path arbitrary bytes,
// seeded with a real export of a few quick datasets and truncated and
// garbled copies of it. A snapshot comes from outside the process, so it
// must fail closed: an error or a count, never a panic. Every key it
// restores must be the key its dataset's provenance derives, and whatever
// it restores must re-export to the same dataset bytes on a second pass, so
// a restored entry serves one stable answer.
func FuzzImportDatasetCache(f *testing.F) {
	donor := memo.NewCache()
	o := quickOpts()
	for _, id := range []string{"table1", "table2", "fig4a"} {
		d, err := RunDataset(id, o)
		if err != nil {
			f.Fatal(err)
		}
		key, err := DatasetKey(id, o)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := donor.Do(key, func() (any, error) { return d, nil }); err != nil {
			f.Fatal(err)
		}
	}
	export, err := exportDatasetCache(donor)
	if err != nil {
		f.Fatal(err)
	}
	restored := memo.NewCache()
	if _, err := ImportDatasetCacheInto(restored, export); err != nil {
		f.Fatal(err)
	}
	if again, err := exportDatasetCache(restored); err != nil || !bytes.Equal(again, export) {
		f.Fatalf("a restored export re-exports differently (%v):\n%s\nvs\n%s", err, export, again)
	}
	f.Add(export)
	f.Add(export[:len(export)/2])
	f.Add(export[:len(export)-3])
	garbled := append([]byte(nil), export...)
	for i := 7; i < len(garbled); i += len(garbled) / 13 {
		garbled[i] ^= 0x20
	}
	f.Add(garbled)
	f.Add(bytes.Replace(export, []byte(`"f": `), []byte(`"f": -`), 1))
	f.Add(bytes.Replace(export, []byte(`"s": `), []byte(`"i": 1, "s": `), 1))
	f.Add(bytes.Replace(export, []byte(`"key": "experiment|table1|`), []byte(`"key": "experiment|table2|`), 1))
	f.Add([]byte(`{"schema": 1, "cache": "dataset", "entries": [{"key": "k", "value": {"schema": 1, "rows": null, "notes": null}}]}`))
	f.Add([]byte(`{"schema": 1, "cache": "dataset", "entries": [{"key": "k", "value": {"schema": 1, "rows": [[{"f": 1e400}]]}}]}`))
	f.Add([]byte(`{"schema": 1, "cache": "dataset", "entries": null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh := memo.NewCache()
		// A fresh cache has no budget and no resident keys, so everything
		// restored before any error stays resident.
		if n, _ := ImportDatasetCacheInto(fresh, data); n != fresh.Stats().Size {
			t.Fatalf("restored %d entries, %d resident", n, fresh.Stats().Size)
		}
		if _, err := fresh.Snapshot(func(key string, v any) ([]byte, error) {
			p := v.(*results.Dataset).Prov
			want, err := DatasetKey(p.ExperimentID, Options{Quick: p.Quick, Seed: p.Seed, Platform: p.Platform, Fidelity: Fidelity(p.Fidelity)})
			if err != nil || p.Scenario != "" || want != key {
				t.Fatalf("restored %q, but its provenance derives %q (scenario %q, %v)", key, want, p.Scenario, err)
			}
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
		again, err := exportDatasetCache(fresh)
		if err != nil {
			t.Fatalf("restored entries do not re-export: %v", err)
		}
		second := memo.NewCache()
		if _, err := ImportDatasetCacheInto(second, again); err != nil {
			t.Fatalf("re-exported snapshot does not import: %v", err)
		}
		third, err := exportDatasetCache(second)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(third, again) {
			t.Fatalf("restored entries re-export differently on a second pass:\n%s\nvs\n%s", again, third)
		}
	})
}

// TestDatasetKeyMatchesCacheBehavior pins the routing contract: DatasetKey
// applies the same knob blanking RunDataset does, so two option sets that
// share a cache entry also share a routing key.
func TestDatasetKeyMatchesCacheBehavior(t *testing.T) {
	o := DefaultOptions()
	o.Quick = true
	// fig3 ignores platform and fidelity: blanked knobs must not fork keys.
	base, err := DatasetKey("fig3", o)
	if err != nil {
		t.Fatal(err)
	}
	op := o
	op.Platform = "x16-quad"
	op.Fidelity = FidelityFast
	forked, err := DatasetKey("fig3", op)
	if err != nil {
		t.Fatal(err)
	}
	if base != forked {
		t.Errorf("fig3 keys fork on blanked knobs:\n%s\n%s", base, forked)
	}
	// matrix-platform consumes the platform knob: keys must fork.
	mBase, err := DatasetKey("matrix-platform", o)
	if err != nil {
		t.Fatal(err)
	}
	mPlat, err := DatasetKey("matrix-platform", op)
	if err != nil {
		t.Fatal(err)
	}
	if mBase == mPlat {
		t.Error("matrix-platform keys do not fork on platform")
	}
	// Parallel never forks any key: a cached value is valid across fan-outs.
	o2 := o
	o2.Parallel = 7
	k2, err := DatasetKey("fig3", o2)
	if err != nil {
		t.Fatal(err)
	}
	if k2 != base {
		t.Error("fig3 key forks on worker count")
	}
	if _, err := DatasetKey("fig99", o); err == nil {
		t.Error("DatasetKey accepted an unknown experiment")
	}
}

// TestScenarioKeyBlanksFidelity pins the scenario half of the routing
// contract: fidelity never forks a cell key, everything else does.
func TestScenarioKeyBlanksFidelity(t *testing.T) {
	sc, err := workloads.ParseScenario("kvstore/policy=cxl")
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	base := ScenarioKey(o, sc)
	if !strings.HasPrefix(base, sc.String()+"|") {
		t.Errorf("cell key %q does not start with the canonical spec", base)
	}
	of := o
	of.Fidelity = FidelityFast
	if ScenarioKey(of, sc) != base {
		t.Error("scenario key forks on fidelity")
	}
	oq := o
	oq.Quick = true
	if ScenarioKey(oq, sc) == base {
		t.Error("scenario key does not fork on quick")
	}
}

// TestCanonicalKeysPinned pins the memo keys literally. They decide ring
// ownership and name every saved snapshot entry, so a change to the
// fingerprint (the retired fastwarm=false segment included, DESIGN.md §21)
// must show up here rather than silently move owners or orphan snapshots.
func TestCanonicalKeysPinned(t *testing.T) {
	for _, tc := range []struct {
		id    string
		quick bool
		want  string
	}{
		{"fig5", true, "experiment|fig5|quick=true|fastwarm=false|seed=1|platform=|fidelity=exact"},
		{"fig4a", true, "experiment|fig4a|quick=true|fastwarm=false|seed=1|platform=|fidelity=exact"},
		{"fig5", false, "experiment|fig5|quick=false|fastwarm=false|seed=1|platform=|fidelity=exact"},
		{"fig4a", false, "experiment|fig4a|quick=false|fastwarm=false|seed=1|platform=|fidelity=exact"},
	} {
		o := DefaultOptions()
		o.Quick = tc.quick
		if got, err := DatasetKey(tc.id, o); err != nil || got != tc.want {
			t.Errorf("DatasetKey(%s, quick=%t) = %q, %v; want %q", tc.id, tc.quick, got, err, tc.want)
		}
	}
	sc, err := workloads.ParseScenario("kvstore/policy=cxl")
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.Quick = true
	const want = "kvstore/policy=cxl|quick=true|fastwarm=false|seed=1|platform=|fidelity=exact"
	if got := ScenarioKey(o, sc); got != want {
		t.Errorf("ScenarioKey = %q, want %q", got, want)
	}
}

// TestMetricsFromDatasetRoundTrip proves the coordinator's parse direction:
// Metrics -> Dataset -> JSON wire -> Dataset -> Metrics is lossless.
func TestMetricsFromDatasetRoundTrip(t *testing.T) {
	var m workloads.Metrics
	m.Add("max_qps", 123456.789012345, "qps")
	m.Add("p99_us", 7.000000000000001, "us")
	m.Add("dram_share", 0.625, "")
	d := m.Dataset("scenario", "probe")
	wire, err := results.Emit(d, "json")
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := results.ParseJSON([]byte(wire))
	if err != nil {
		t.Fatal(err)
	}
	got, err := workloads.MetricsFromDataset(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Items) != len(m.Items) {
		t.Fatalf("round trip has %d metrics, want %d", len(got.Items), len(m.Items))
	}
	for i, it := range got.Items {
		if it != m.Items[i] {
			t.Errorf("metric %d = %+v, want %+v (bit-exact)", i, it, m.Items[i])
		}
	}
	if _, err := workloads.MetricsFromDataset(results.New("x", "bad", results.Column{Name: "only"})); err != nil {
		// Zero-row dataset round-trips as empty metrics; only malformed rows fail.
		t.Errorf("empty dataset should parse to empty metrics, got %v", err)
	}
	bad := results.New("x", "bad")
	bad.AddRow(results.Str("a"), results.Str("b"))
	if _, err := workloads.MetricsFromDataset(bad); err == nil {
		t.Error("two-cell row parsed as a metric")
	}
}
