// Command cxlserve is the structured-results query daemon: it serves every
// registered experiment and any scenario spec over HTTP, rendered by the
// pluggable emitters (json by default, text and csv on request). Results are
// memoized process-wide in bounded, least-recently-used caches with
// single-flight semantics, so concurrent clients asking for the same table
// share one evaluation and repeats are served from the cache. Every result
// is a pure function of its memo key, so a cached one stays until
// -cache-entries evicts it; nothing else expires it.
//
// The daemon is production-hardened (DESIGN.md §11): requests carry a
// deadline that cancels in-flight sweep work, an admission gate sheds load
// beyond the in-flight budget with 429/503 + Retry-After, /metrics exposes
// cache and latency counters, /healthz answers liveness probes, and SIGINT/
// SIGTERM drain gracefully — queued work is shed, in-flight requests finish.
// A bad command line exits 2 with the usage text: a stray argument, a
// negative count, budget, deadline or interval, or -snapshot-interval
// without -snapshot-save.
//
// Usage:
//
//	cxlserve                          # listen on :8080, full fidelity
//	cxlserve -addr :9000 -quick       # reduced sample counts (staging/CI)
//	cxlserve -parallel 4              # bound each run's sweep worker pool
//	cxlserve -max-inflight 8 -max-queue 64 -timeout 30s -cache-entries 512
//
// Horizontal scale-out (DESIGN.md §14): -peers forms a cache-sharding ring —
// each compute request is served by the replica owning its canonical memo
// key, everything else proxies one hop — and -snapshot-load/-snapshot-save
// warm-start the dataset cache across restarts:
//
//	cxlserve -addr :8375 -peers http://hostA:8375,http://hostB:8375
//	cxlserve -snapshot-load warm.json -snapshot-save warm.json -snapshot-interval 5m
//
// Endpoints:
//
//	GET /v1/experiments                         registry + formats + platforms
//	GET /v1/run?id=fig5&format=json             one experiment
//	GET /v1/run?id=matrix-apps&format=csv       matrices too
//	GET /v1/scenario?spec=dlrm/policy=cxl:63    one scenario cell
//	GET /v1/snapshot                            dataset-cache warm-start snapshot
//	GET /v1/trace?id=tpp-timeline&limit=100     one event-driven run, replayed traced
//	GET /metrics                                cache/admission/latency counters
//	GET /healthz                                liveness (503 while draining)
//
// Requests may override platform=, quick=, fidelity= and seed=, and lower
// (never raise) the deadline with timeout=; the sweep worker count stays a
// server flag so clients cannot oversubscribe the host. No run is traced
// unless a client asks: /v1/trace takes the id= or spec= query of the
// response it explains and replays that one run, behind the admission
// gate, with a ring of limit= events (default 4096, at most 65536).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"cxlmem/internal/cluster"
	"cxlmem/internal/experiments"
	"cxlmem/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	quick := flag.Bool("quick", false, "default to reduced sample counts (requests may override with quick=)")
	parallel := flag.Int("parallel", 0, "sweep worker count per run (0 = all CPUs)")
	seed := flag.Uint64("seed", 0, "default experiment seed (0 = calibrated default)")
	platform := flag.String("platform", "", "default platform profile for scenario cells")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request evaluation deadline (0 = none; requests may lower it with timeout=)")
	maxInflight := flag.Int("max-inflight", 4*runtime.GOMAXPROCS(0), "max concurrently admitted compute requests (0 = unlimited)")
	maxQueue := flag.Int("max-queue", 64, "requests allowed to wait for an admission slot before shedding 429")
	cacheEntries := flag.Int("cache-entries", 1024, "entry budget per memo cache, least recently used evicted first (0 = unbounded)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")
	pprofFlag := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (bypasses admission control; trusted networks only)")
	peers := flag.String("peers", "", "comma-separated replica URLs forming the cache-sharding ring; compute requests proxy one hop to the key's owner")
	selfAddr := flag.String("self", "", "this replica's advertised URL in the -peers ring (default: derived from -addr on 127.0.0.1)")
	snapshotLoad := flag.String("snapshot-load", "", "warm-start: restore the dataset cache from this snapshot file at boot (a missing file starts cold)")
	snapshotSave := flag.String("snapshot-save", "", "write a dataset-cache snapshot here at shutdown (and every -snapshot-interval)")
	snapshotInterval := flag.Duration("snapshot-interval", 0, "also snapshot periodically while serving (0 = only at shutdown; needs -snapshot-save)")
	flag.Parse()
	if flag.NArg() > 0 {
		usageError("unexpected argument %q", flag.Arg(0))
	}
	// A negative budget, deadline or interval has no meaning; taking it
	// would silently switch the bound off.
	for _, f := range []struct {
		name     string
		negative bool
	}{
		{"cache-entries", *cacheEntries < 0},
		{"max-inflight", *maxInflight < 0},
		{"max-queue", *maxQueue < 0},
		{"parallel", *parallel < 0},
		{"timeout", *timeout < 0},
		{"drain-timeout", *drainTimeout < 0},
		{"snapshot-interval", *snapshotInterval < 0},
	} {
		if f.negative {
			usageError("-%s must not be negative, got %s", f.name, flag.Lookup(f.name).Value)
		}
	}
	if *snapshotInterval > 0 && *snapshotSave == "" {
		usageError("-snapshot-interval needs -snapshot-save")
	}

	opts, err := experiments.Options{Quick: *quick, Parallel: *parallel, Seed: *seed, Platform: *platform}.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cxlserve:", err)
		os.Exit(1)
	}
	experiments.ConfigureCaches(*cacheEntries)

	// Warm start: restore the dataset cache before the listener opens so the
	// first request already hits. A missing file is a cold boot, not an
	// error (first run, or the snapshot was never written); a file that
	// exists but does not parse is fatal — serving with a silently ignored
	// snapshot would defeat the restart story the flag exists for.
	restored := 0
	if *snapshotLoad != "" {
		data, err := os.ReadFile(*snapshotLoad)
		switch {
		case errors.Is(err, os.ErrNotExist):
			log.Printf("cxlserve: snapshot %s absent, starting cold", *snapshotLoad)
		case err != nil:
			fmt.Fprintln(os.Stderr, "cxlserve:", err)
			os.Exit(1)
		default:
			restored, err = experiments.ImportDatasetCache(data)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cxlserve:", err)
				os.Exit(1)
			}
			log.Printf("cxlserve: warm start: restored %d dataset entries from %s", restored, *snapshotLoad)
		}
	}

	var ring *cluster.Ring
	if *peers != "" {
		ring, err = buildRing(*selfAddr, *addr, *peers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cxlserve:", err)
			os.Exit(1)
		}
		log.Printf("cxlserve: sharding ring: self=%s peers=%v", ring.Self(), ring.Peers())
	}

	s := serve.NewServer(serve.Config{
		Base:             opts,
		Timeout:          *timeout,
		MaxInflight:      *maxInflight,
		MaxQueue:         *maxQueue,
		EnablePprof:      *pprofFlag,
		Ring:             ring,
		SnapshotRestored: restored,
	})
	srv := &http.Server{Addr: *addr, Handler: s.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if *snapshotInterval > 0 {
		go func() {
			tick := time.NewTicker(*snapshotInterval)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					if err := saveSnapshot(*snapshotSave); err != nil {
						log.Printf("cxlserve: periodic snapshot: %v", err)
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	done := make(chan error, 1)
	go func() {
		log.Printf("cxlserve: listening on %s (quick=%t parallel=%d max-inflight=%d timeout=%s cache-entries=%d)",
			*addr, *quick, *parallel, *maxInflight, *timeout, *cacheEntries)
		done <- srv.ListenAndServe()
	}()

	select {
	case err := <-done:
		// The listener failed before any signal (bad address, port in use).
		fmt.Fprintln(os.Stderr, "cxlserve:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: stop routing (healthz 503), shed queued work, then let
	// in-flight requests finish under the drain deadline.
	log.Printf("cxlserve: signal received, draining (up to %s)", *drainTimeout)
	s.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "cxlserve: drain incomplete:", err)
		os.Exit(1)
	}
	if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "cxlserve:", err)
		os.Exit(1)
	}
	// Final snapshot after the drain: every in-flight computation has
	// settled into the cache, so the next boot restores the freshest state.
	if *snapshotSave != "" {
		if err := saveSnapshot(*snapshotSave); err != nil {
			fmt.Fprintln(os.Stderr, "cxlserve: final snapshot:", err)
			os.Exit(1)
		}
		log.Printf("cxlserve: snapshot saved to %s", *snapshotSave)
	}
	log.Print("cxlserve: drained, bye")
}

// usageError reports a bad command line and exits 2 with the usage text.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cxlserve: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// saveSnapshot writes the dataset-cache snapshot atomically (temp file +
// rename) so a crash mid-write never leaves a truncated snapshot for the
// next boot to choke on.
func saveSnapshot(path string) error {
	data, err := experiments.ExportDatasetCache()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// buildRing assembles the sharding ring from the -self/-addr/-peers flags:
// the advertised self URL defaults to the listen port on 127.0.0.1, and all
// addresses are normalized so flag spellings cannot split the membership.
func buildRing(self, addr, peers string) (*cluster.Ring, error) {
	if self == "" {
		host, port, err := net.SplitHostPort(addr)
		if err != nil {
			return nil, fmt.Errorf("deriving -self from -addr %q: %w", addr, err)
		}
		if host == "" {
			host = "127.0.0.1"
		}
		self = "http://" + net.JoinHostPort(host, port)
	}
	selfURL, err := cluster.NormalizeAddr(self)
	if err != nil {
		return nil, err
	}
	peerList, err := cluster.ParsePeerList(peers)
	if err != nil {
		return nil, err
	}
	return cluster.NewRing(selfURL, peerList)
}
