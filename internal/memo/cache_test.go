package memo

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCacheMemoizes(t *testing.T) {
	c := NewCache()
	var calls atomic.Int64
	compute := func() (any, error) {
		calls.Add(1)
		return 42, nil
	}
	for i := 0; i < 3; i++ {
		v, err := c.Do("k", compute)
		if err != nil || v.(int) != 42 {
			t.Fatalf("Do = %v, %v", v, err)
		}
	}
	if calls.Load() != 1 {
		t.Errorf("compute ran %d times, want 1", calls.Load())
	}
	if st := c.Stats(); st.Size != 1 || st.Hits != 2 {
		t.Errorf("Size=%d Hits=%d, want 1/2", st.Size, st.Hits)
	}
}

func TestCacheCachesErrors(t *testing.T) {
	c := NewCache()
	var calls int
	want := errors.New("boom")
	for i := 0; i < 2; i++ {
		if _, err := c.Do("bad", func() (any, error) { calls++; return nil, want }); !errors.Is(err, want) {
			t.Fatalf("err = %v, want %v", err, want)
		}
	}
	if calls != 1 {
		t.Errorf("failing compute ran %d times, want 1", calls)
	}
}

// TestCacheSingleFlight hammers one key from many goroutines: exactly one
// computation, everyone sees its result (run under -race in CI).
func TestCacheSingleFlight(t *testing.T) {
	c := NewCache()
	var calls atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Do("shared", func() (any, error) {
				calls.Add(1)
				return "result", nil
			})
			if err != nil || v.(string) != "result" {
				t.Errorf("Do = %v, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if calls.Load() != 1 {
		t.Errorf("compute ran %d times, want 1", calls.Load())
	}
	if size := c.Stats().Size; size != 1 {
		t.Errorf("Size = %d, want 1", size)
	}
}

func TestCacheDistinctKeys(t *testing.T) {
	c := NewCache()
	for _, k := range []string{"a", "b", "c"} {
		k := k
		v, err := c.Do(k, func() (any, error) { return k + "!", nil })
		if err != nil || v.(string) != k+"!" {
			t.Fatalf("Do(%q) = %v, %v", k, v, err)
		}
	}
	if st := c.Stats(); st.Size != 3 || st.Hits != 0 {
		t.Errorf("Size=%d Hits=%d, want 3/0", st.Size, st.Hits)
	}
}
