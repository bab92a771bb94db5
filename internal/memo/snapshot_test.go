package memo

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// jsonCodec is the test codec: values are plain strings carried as JSON.
func encodeString(_ string, v any) ([]byte, error) { return json.Marshal(v.(string)) }

func decodeString(key string, data []byte) (string, any, error) {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return "", nil, err
	}
	return key, s, nil
}

// TestSnapshotRoundTrip proves the core warm-start contract: a snapshot of
// computed entries restores into a fresh cache whose Do calls are all hits
// (zero recompute) returning the original values.
func TestSnapshotRoundTrip(t *testing.T) {
	src := NewCache()
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, err := src.Do(key, func() (any, error) { return "v" + key, nil }); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := src.Snapshot(encodeString)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 5 {
		t.Fatalf("snapshot has %d entries, want 5", len(snap))
	}

	dst := NewCache()
	n, err := dst.Restore(snap, decodeString)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("restored %d entries, want 5", n)
	}
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		v, err := dst.Do(key, func() (any, error) {
			t.Errorf("restored key %s recomputed", key)
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if v != "v"+key {
			t.Errorf("restored %s = %v, want v%s", key, v, key)
		}
	}
	if hits := dst.Stats().Hits; hits != 5 {
		t.Errorf("restored cache served %d hits, want 5", hits)
	}
}

// TestSnapshotSkipsUnsettled pins what must NOT travel: cached errors and
// in-flight computations.
func TestSnapshotSkipsUnsettled(t *testing.T) {
	c := NewCache()
	if _, err := c.Do("ok", func() (any, error) { return "good", nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do("bad", func() (any, error) { return nil, errors.New("boom") }); err == nil {
		t.Fatal("error result not cached")
	}
	started := make(chan struct{})
	release := make(chan struct{})
	go c.Do("inflight", func() (any, error) {
		close(started)
		<-release
		return "late", nil
	})
	<-started
	defer close(release)

	snap, err := c.Snapshot(encodeString)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 1 || snap[0].Key != "ok" {
		t.Fatalf("snapshot = %+v, want only the settled success %q", snap, "ok")
	}
}

// TestRestoreKeepsResident proves live state beats the snapshot: a key
// already computed in the target cache is not clobbered by a restore.
func TestRestoreKeepsResident(t *testing.T) {
	src := NewCache()
	if _, err := src.Do("k", func() (any, error) { return "stale", nil }); err != nil {
		t.Fatal(err)
	}
	snap, err := src.Snapshot(encodeString)
	if err != nil {
		t.Fatal(err)
	}

	dst := NewCache()
	if _, err := dst.Do("k", func() (any, error) { return "live", nil }); err != nil {
		t.Fatal(err)
	}
	n, err := dst.Restore(snap, decodeString)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("restore over a resident key reported %d restored, want 0", n)
	}
	v, _ := dst.Do("k", func() (any, error) { return nil, nil })
	if v != "live" {
		t.Errorf("resident value = %v, want live", v)
	}
}

// TestRestoreRenamedKeys pins the canonical-key half of Restore: an entry
// is stored under the key decode returns, and once that key is resident a
// later entry mapping to it is dropped as a duplicate, not counted.
func TestRestoreRenamedKeys(t *testing.T) {
	canonical := func(key string, data []byte) (string, any, error) {
		_, v, err := decodeString(key, data)
		return strings.TrimPrefix(key, "old:"), v, err
	}
	c := NewCache()
	n, err := c.Restore([]SnapshotEntry{
		{Key: "old:k", Value: json.RawMessage(`"newest"`)},
		{Key: "k", Value: json.RawMessage(`"older"`)},
		{Key: "old:j", Value: json.RawMessage(`"vj"`)},
	}, canonical)
	if err != nil || n != 2 {
		t.Fatalf("restore = %d, %v; want 2 restored", n, err)
	}
	for key, want := range map[string]string{"k": "newest", "j": "vj"} {
		v, _ := c.Do(key, func() (any, error) { return "recomputed", nil })
		if v != want {
			t.Errorf("%s = %v, want %s", key, v, want)
		}
	}
	if size := c.Stats().Size; size != 2 {
		t.Errorf("cache holds %d entries, want 2 (no entry under an old key)", size)
	}
}

// TestRestoreHonorsBudget squeezes the target cache below the snapshot size:
// the restore must not blow the entry budget, and the most recently used
// (earliest) entries must be the survivors.
func TestRestoreHonorsBudget(t *testing.T) {
	src := NewCache()
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, err := src.Do(key, func() (any, error) { return "v" + key, nil }); err != nil {
			t.Fatal(err)
		}
	}
	// Touch k0 so it tops the recency order.
	for i := 0; i < 8; i++ {
		src.Do("k0", func() (any, error) { return nil, nil })
	}
	snap, err := src.Snapshot(encodeString)
	if err != nil {
		t.Fatal(err)
	}
	if snap[0].Key != "k0" {
		t.Fatalf("snapshot head = %s, want the MRU key k0", snap[0].Key)
	}

	dst := NewCacheWith(CacheConfig{MaxEntries: 4})
	if _, err := dst.Restore(snap, decodeString); err != nil {
		t.Fatal(err)
	}
	if got := dst.Stats().Size; got > 4 {
		t.Errorf("restored cache holds %d entries, budget is 4", got)
	}
	v, err := dst.Do("k0", func() (any, error) { return "recomputed", nil })
	if err != nil {
		t.Fatal(err)
	}
	if v != "vk0" {
		t.Errorf("most recent key k0 = %v after bounded restore, want the restored vk0", v)
	}
}

// TestRestoreDecodeError pins the failure contract: a decode error aborts
// the restore and reports how many entries made it in.
func TestRestoreDecodeError(t *testing.T) {
	c := NewCache()
	entries := []SnapshotEntry{
		{Key: "a", Value: json.RawMessage(`"va"`)},
		{Key: "b", Value: json.RawMessage(`not-json`)},
		{Key: "c", Value: json.RawMessage(`"vc"`)},
	}
	n, err := c.Restore(entries, decodeString)
	if err == nil {
		t.Fatal("restore of a corrupt entry succeeded")
	}
	if n != 1 {
		t.Errorf("restored %d entries before the corrupt one, want 1", n)
	}
	if size := c.Stats().Size; size != 1 {
		t.Errorf("cache holds %d entries, want 1", size)
	}
}

// TestSnapshotRestoredEntriesServeConcurrently is the race check: restored
// entries must be indistinguishable from computed ones under concurrent
// DoCtx traffic.
func TestSnapshotRestoredEntriesServeConcurrently(t *testing.T) {
	src := NewCache()
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("k%d", i)
		src.Do(key, func() (any, error) { return "v" + key, nil })
	}
	snap, err := src.Snapshot(encodeString)
	if err != nil {
		t.Fatal(err)
	}
	dst := NewCacheWith(CacheConfig{MaxEntries: 6})
	if _, err := dst.Restore(snap, decodeString); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (i+w)%8)
				v, err := dst.DoCtx(context.Background(), key, func(context.Context) (any, error) {
					return "v" + key, nil
				})
				if err != nil || v != "v"+key {
					t.Errorf("concurrent read of %s = %v, %v", key, v, err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}
