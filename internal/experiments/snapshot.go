// Warm-start snapshots of the dataset memo cache (DESIGN.md §14).
//
// Every cached dataset is a pure function of its canonical memo key, and
// the results JSON emitter is lossless, so the whole cache can travel as
// (key, wire-form) pairs: ExportDatasetCache serializes the resident
// datasets through the same emitter that answers format=json requests, and
// ImportDatasetCache inverts it with results.ParseJSON. A replica restarted
// from a snapshot therefore serves byte-identical responses for every
// restored key with zero recompute — the property the warm-start tests pin
// against the golden corpus.
//
// Only the dataset cache is snapshotted. Scenario cells are cheap relative
// to whole experiments, carry non-serializable workload state in some
// models, and are themselves re-memoized on first touch; the dataset layer
// is where a cold boot hurts.
package experiments

import (
	"encoding/json"
	"fmt"

	"cxlmem/internal/memo"
	"cxlmem/internal/results"
)

// snapshotSchemaVersion is bumped whenever the snapshot envelope or the
// entry encoding changes shape; ImportDatasetCache rejects other versions.
const snapshotSchemaVersion = 1

// snapshotFile is the on-disk/wire envelope of a dataset-cache snapshot.
type snapshotFile struct {
	// Schema is the snapshot format version.
	Schema int `json:"schema"`
	// Cache names the snapshotted cache ("dataset").
	Cache string `json:"cache"`
	// Entries holds the serialized cache entries, most-recently-used first.
	Entries []memo.SnapshotEntry `json:"entries"`
}

// encodeDataset serializes one cached dataset through the lossless JSON
// emitter — exactly the bytes a format=json response carries.
func encodeDataset(key string, v any) ([]byte, error) {
	d, ok := v.(*results.Dataset)
	if !ok {
		return nil, fmt.Errorf("experiments: cache entry %q is not a dataset", key)
	}
	out, err := results.Emit(d, "json")
	if err != nil {
		return nil, fmt.Errorf("experiments: encoding %q: %w", key, err)
	}
	return []byte(out), nil
}

// decodeDataset inverts encodeDataset via results.ParseJSON and returns
// the key to restore the dataset under: the canonical key its provenance
// derives through DatasetKey. The entry's own key must be that key, or the
// key a build that kept every seed in the key derived from the same
// provenance (DESIGN.md §31); such an entry moves to its canonical key,
// with the default seed in its provenance, as RunDataset caches it. Any
// other key is refused, so a mislabeled entry never serves one
// experiment's bytes under another's key. Only experiments fill the
// dataset cache, so a scenario provenance never matches.
func decodeDataset(key string, data []byte) (string, any, error) {
	d, err := results.ParseJSON(data)
	if err != nil {
		return "", nil, fmt.Errorf("experiments: decoding %q: %w", key, err)
	}
	p := d.Prov
	if e, err := Get(p.ExperimentID); err == nil && p.Scenario == "" {
		o := Options{Quick: p.Quick, Seed: p.Seed, Platform: p.Platform, Fidelity: Fidelity(p.Fidelity)}
		canonical := e.canonicalOptions(o)
		perSeed := canonical
		perSeed.Seed = o.withDefaultSeed().Seed
		if want := datasetKey(e.ID, canonical); key == want || key == datasetKey(e.ID, perSeed) {
			d.Prov.Seed = canonical.Seed
			return want, d, nil
		}
	}
	return "", nil, fmt.Errorf("experiments: snapshot entry %q holds a dataset of another key (experiment %q, scenario %q)", key, p.ExperimentID, p.Scenario)
}

// ExportDatasetCache serializes the process-wide dataset cache — every
// settled, successful entry with its key, most recently used first — as the
// schema-versioned snapshot JSON cxlserve's /v1/snapshot serves and its
// -snapshot-save flag writes.
func ExportDatasetCache() ([]byte, error) {
	return exportDatasetCache(datasetCache)
}

// exportDatasetCache is ExportDatasetCache against an explicit cache, the
// inverse of ImportDatasetCacheInto.
func exportDatasetCache(c *memo.Cache) ([]byte, error) {
	entries, err := c.Snapshot(encodeDataset)
	if err != nil {
		return nil, err
	}
	if entries == nil {
		entries = []memo.SnapshotEntry{}
	}
	out, err := json.MarshalIndent(snapshotFile{Schema: snapshotSchemaVersion, Cache: "dataset", Entries: entries}, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// ImportDatasetCache restores a snapshot produced by ExportDatasetCache
// into the process-wide dataset cache and reports how many entries were
// restored. Keys already resident are left untouched, and the configured
// entry budget still applies — an oversized snapshot keeps its most
// recently used entries, evicted from the recency tail like any other
// overflow. An entry whose key is neither its dataset's provenance key nor
// that key with the provenance's own seed fails the import.
func ImportDatasetCache(data []byte) (int, error) {
	return ImportDatasetCacheInto(datasetCache, data)
}

// ImportDatasetCacheInto is ImportDatasetCache against an explicit cache —
// the snapshot tests (here and in the serve layer) restore into a fresh
// process-shape cache so the global one cannot mask a serialization bug.
func ImportDatasetCacheInto(c *memo.Cache, data []byte) (int, error) {
	var f snapshotFile
	if err := json.Unmarshal(data, &f); err != nil {
		return 0, fmt.Errorf("experiments: bad snapshot: %w", err)
	}
	if f.Schema != snapshotSchemaVersion {
		return 0, fmt.Errorf("experiments: unsupported snapshot schema %d (want %d)", f.Schema, snapshotSchemaVersion)
	}
	if f.Cache != "dataset" {
		return 0, fmt.Errorf("experiments: snapshot is of cache %q, want %q", f.Cache, "dataset")
	}
	return c.Restore(f.Entries, decodeDataset)
}
