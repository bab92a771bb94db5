package cluster

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"

	"cxlmem/internal/experiments"
	"cxlmem/internal/workloads"
)

// TestCoordinatorBoundsReplies: the coordinator reads a replica's reply
// through the proxy hop's bound, so a reply that runs past MaxReply, or ends
// short of its Content-Length, fails the cell instead of being read whole or
// parsed.
func TestCoordinatorBoundsReplies(t *testing.T) {
	sc, err := workloads.ParseScenario("kvstore/policy=cxl")
	if err != nil {
		t.Fatal(err)
	}
	o := experiments.DefaultOptions()
	o.Quick = true
	for _, tc := range []struct {
		name    string
		handler http.HandlerFunc
		want    error
	}{
		{"past the bound", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", strconv.Itoa(MaxReply+1))
			_, _ = w.Write([]byte(`{"schema": 1, `))
		}, ErrReplyTooLarge},
		{"short of its length", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", "4096")
			_, _ = w.Write([]byte(`{"schema": 1, `))
		}, io.ErrUnexpectedEOF},
	} {
		replica := httptest.NewServer(tc.handler)
		ring, err := NewRing("", []string{replica.URL})
		if err != nil {
			t.Fatal(err)
		}
		co := &Coordinator{Ring: ring}
		if _, err := co.ScenarioResult(context.Background(), o, sc); !errors.Is(err, tc.want) {
			t.Errorf("%s: cell fetch error %v, want %v", tc.name, err, tc.want)
		}
		if _, err := co.ScenarioCells(context.Background(), o, []workloads.Scenario{sc, sc}); !errors.Is(err, tc.want) {
			t.Errorf("%s: matrix fetch error %v, want %v", tc.name, err, tc.want)
		}
		replica.Close()
	}
}

// TestCoordinatorCanceledContextFailsClosed: a context that has already
// ended fetches no cell and fails the run with its error, instead of
// returning blank metrics that merge into a dataset of empty rows.
func TestCoordinatorCanceledContextFailsClosed(t *testing.T) {
	var fetched atomic.Int32
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fetched.Add(1)
		http.Error(w, "unexpected fetch", http.StatusInternalServerError)
	}))
	defer replica.Close()
	ring, err := NewRing("", []string{replica.URL})
	if err != nil {
		t.Fatal(err)
	}
	co := &Coordinator{Ring: ring}
	o := experiments.DefaultOptions()
	o.Quick = true
	scs := experiments.AllMatrixScenarios()[:2]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	cells, err := co.ScenarioCells(ctx, o, scs)
	if !errors.Is(err, context.Canceled) || cells != nil {
		t.Errorf("ScenarioCells = %v, %v; want no metrics and context.Canceled", cells, err)
	}
	d, err := co.ScenarioDataset(ctx, o, "matrix-all", "canceled", scs)
	if !errors.Is(err, context.Canceled) || d != nil {
		t.Errorf("ScenarioDataset = %v, %v; want no dataset and context.Canceled", d, err)
	}
	if n := fetched.Load(); n != 0 {
		t.Errorf("a canceled run fetched %d cells", n)
	}
}
