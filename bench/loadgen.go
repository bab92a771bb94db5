package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clients is the load's concurrency: two keep-alive connections, one per
// vCPU of the host the benchmark was sized on.
const clients = 2

// newLoadClient returns an HTTP client that opens at most `clients`
// connections, never consults a proxy, and never compresses.
func newLoadClient() *http.Client {
	return &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}
}

// request is one request's record. Times are offsets from the loop's start.
type request struct {
	path int // index into the loop's paths
	due  time.Duration
	sent time.Duration
	end  time.Duration
	done bool
	// status is the HTTP status, 0 on a transport error.
	status int
	bytes  int
	ok     bool // the body equalled the reference (open loop) or was recorded (closed loop)
	digest [32]byte
	err    error
}

// fetch GETs url into buf and returns the status.
func fetch(ctx context.Context, client *http.Client, url string, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, fmt.Errorf("reading %s: %w", url, err)
	}
	return resp.StatusCode, nil
}

// poisson draws an open-loop schedule: arrivals at rate per second for the
// horizon, each for a path chosen uniformly from n.
func poisson(rng *rand.Rand, rate float64, horizon time.Duration, n int) []request {
	var reqs []request
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= horizon {
			return reqs
		}
		reqs = append(reqs, request{path: rng.Intn(n), due: t})
	}
}

// openLoop sends each scheduled request when it falls due, whatever the
// state of earlier ones, over `clients` connections. A request waiting for
// a free connection keeps waiting on the clock: its latency runs from when
// it was due. check judges each body. It returns the loop's start.
func openLoop(ctx context.Context, client *http.Client, base string, paths []string, reqs []request, check func(path, status int, body []byte) bool) time.Time {
	// One slot per request, so the pacer never waits on a slow worker.
	queue := make(chan int, len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range queue {
				r := &reqs[i]
				r.status, r.err = fetch(ctx, client, base+paths[r.path], &buf)
				r.end = time.Since(start)
				r.bytes = buf.Len()
				r.done = true
				r.ok = r.err == nil && check(r.path, r.status, buf.Bytes())
			}
		}()
	}
	pace(ctx, start, reqs, queue)
	close(queue)
	wg.Wait()
	return start
}

// pace releases each request into queue at its due time. It sleeps with
// nanosleep on a locked OS thread: time.Sleep overshoots by about half a
// millisecond at 2000 requests per second, nanosleep by well under 0.1 ms.
func pace(ctx context.Context, start time.Time, reqs []request, queue chan<- int) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := range reqs {
		if ctx.Err() != nil {
			return
		}
		for wait := reqs[i].due - time.Since(start); wait > 0; wait = reqs[i].due - time.Since(start) {
			ts := syscall.NsecToTimespec(wait.Nanoseconds())
			_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just loops
		}
		reqs[i].sent = time.Since(start)
		queue <- i
	}
}

// closedLoop runs `clients` callers that each send the next path of seq as
// soon as their previous request completes, until the duration has passed
// or seq runs out. record judges each body. It returns the loop's start and
// the requests that ran.
func closedLoop(ctx context.Context, client *http.Client, base string, paths []string, seq []int, d time.Duration, record func(r *request, body []byte)) (time.Time, []request) {
	reqs := make([]request, len(seq))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(seq) || time.Since(start) >= d {
					return
				}
				r := &reqs[i]
				r.path = seq[i]
				r.sent = time.Since(start)
				r.due = r.sent
				r.status, r.err = fetch(ctx, client, base+paths[r.path], &buf)
				r.end = time.Since(start)
				r.bytes = buf.Len()
				r.done = true
				if r.err == nil {
					record(r, buf.Bytes())
				}
			}
		}()
	}
	wg.Wait()
	var ran []request
	for _, r := range reqs {
		if r.done {
			ran = append(ran, r)
		}
	}
	return start, ran
}
