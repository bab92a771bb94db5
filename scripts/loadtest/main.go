// Command loadtest is the sustained-load harness for cxlserve: it fires a
// configurable number of concurrent mixed queries (/v1/run and /v1/scenario
// across several experiments, formats and scenario cells) at a running
// daemon and reports the outcome — status-class counts, shed rate, and
// p50/p90/p99/max latency.
//
// It doubles as a CI gate: with -fail-5xx it exits non-zero on any 5xx
// response, and -max-p99 bounds the 99th-percentile latency. Transport
// errors (connection refused, harness-side timeout) always fail the run —
// an overloaded cxlserve must shed with 429/503, never hang or drop
// connections.
//
// Usage:
//
//	cxlserve -quick -max-inflight 16 -max-queue 256 &
//	go run ./scripts/loadtest -url http://localhost:8080 -n 512 -c 64
//	go run ./scripts/loadtest -n 200 -c 200 -max-p99 30s -fail-5xx   # CI smoke
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"cxlmem/internal/pool"
	"cxlmem/internal/stats"
)

// defaultMix exercises both compute endpoints, repeated cache hits, every
// emitter, matrix experiments, and distinct scenario cells.
const defaultMix = "/v1/run?id=table2," +
	"/v1/run?id=fig4a&format=text," +
	"/v1/run?id=fig4a&format=csv," +
	"/v1/run?id=matrix-size," +
	"/v1/run?id=table3," +
	"/v1/scenario?spec=fluid/policy=interleave/size=64M," +
	"/v1/scenario?spec=kvstore/policy=cxl," +
	"/v1/scenario?spec=dlrm/policy=cxl:63"

// result is one request's outcome, written to an index-addressed slot so
// workers never contend.
type result struct {
	status  int // 0 = transport error
	latency time.Duration
	err     error
}

func main() {
	url := flag.String("url", "http://localhost:8080", "cxlserve base URL")
	n := flag.Int("n", 512, "total requests")
	c := flag.Int("c", 64, "concurrent workers")
	mix := flag.String("mix", defaultMix, "comma-separated request paths, cycled per request")
	reqTimeout := flag.Duration("req-timeout", 2*time.Minute, "per-request client timeout (a hang fails the run)")
	maxP99 := flag.Duration("max-p99", 0, "fail if p99 latency exceeds this (0 = no gate)")
	fail5xx := flag.Bool("fail-5xx", false, "fail on any 5xx response")
	flag.Parse()

	paths := strings.Split(*mix, ",")
	if *n <= 0 || *c <= 0 || len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "loadtest: -n, -c and -mix must be positive/non-empty")
		os.Exit(2)
	}
	client := &http.Client{Timeout: *reqTimeout}

	results := make([]result, *n)
	start := time.Now()
	// Each request records its own outcome, so Run has no error to return.
	_ = pool.Run(context.Background(), *c, *n, func(_ context.Context, i int) error {
		t0 := time.Now()
		resp, err := client.Get(*url + paths[i%len(paths)])
		if err != nil {
			results[i] = result{err: err, latency: time.Since(t0)}
			return nil
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		results[i] = result{status: resp.StatusCode, latency: time.Since(t0)}
		return nil
	})
	wall := time.Since(start)

	var ok2xx, client4xx, server5xx, shed, transport int
	latencies := make([]float64, 0, *n)
	for i, r := range results {
		latencies = append(latencies, r.latency.Seconds())
		switch {
		case r.err != nil:
			transport++
			if transport <= 3 {
				fmt.Fprintf(os.Stderr, "loadtest: %s: %v\n", paths[i%len(paths)], r.err)
			}
		case r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable:
			shed++
		case r.status >= 500:
			server5xx++
		case r.status >= 400:
			client4xx++
		default:
			ok2xx++
		}
	}
	p50 := time.Duration(stats.Percentile(latencies, 50) * float64(time.Second))
	p90 := time.Duration(stats.Percentile(latencies, 90) * float64(time.Second))
	p99 := time.Duration(stats.Percentile(latencies, 99) * float64(time.Second))
	max := time.Duration(stats.Percentile(latencies, 100) * float64(time.Second))

	fmt.Printf("loadtest: %d requests, %d workers, %.1fs wall (%.1f req/s)\n",
		*n, *c, wall.Seconds(), float64(*n)/wall.Seconds())
	fmt.Printf("  2xx=%d shed(429/503)=%d other-4xx=%d 5xx=%d transport-err=%d\n",
		ok2xx, shed, client4xx, server5xx, transport)
	fmt.Printf("  latency p50=%s p90=%s p99=%s max=%s\n",
		p50.Round(time.Millisecond), p90.Round(time.Millisecond),
		p99.Round(time.Millisecond), max.Round(time.Millisecond))

	failed := false
	if transport > 0 {
		fmt.Fprintf(os.Stderr, "loadtest: FAIL: %d transport errors (server hung or dropped connections)\n", transport)
		failed = true
	}
	if *fail5xx && server5xx > 0 {
		fmt.Fprintf(os.Stderr, "loadtest: FAIL: %d 5xx responses\n", server5xx)
		failed = true
	}
	if *maxP99 > 0 && p99 > *maxP99 {
		fmt.Fprintf(os.Stderr, "loadtest: FAIL: p99 %s exceeds gate %s\n", p99, *maxP99)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}
