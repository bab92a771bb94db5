package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cxlmem/internal/experiments"
)

// harness holds what every workload needs: the built programs, the golden
// corpus and the context that stops everything on a signal.
type harness struct {
	ctx      context.Context
	root     string
	cxlbench string
	cxlserve string
	// ids are the experiment IDs in registry order, the order of
	// `cxlbench -list` and of `cxlbench -run all`.
	ids []string
	// golden maps a golden file name ("fig5.json") to its bytes.
	golden map[string][]byte
	// regenWant is what `cxlbench -run all -quick` must print: every text
	// golden in registry order, each followed by a blank line.
	regenWant []byte
}

// newHarness builds cxlbench and cxlserve from the checkout the benchmark
// sits in and loads the golden corpus. The build is never timed.
func newHarness(ctx context.Context) (*harness, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	bin := filepath.Join(root, ".bench_build", "bin")
	logf("building cxlbench and cxlserve into %s", bin)
	build := exec.CommandContext(ctx, "go", "build", "-o", bin+string(os.PathSeparator), "./cmd/cxlbench", "./cmd/cxlserve")
	build.Dir = root
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return nil, fmt.Errorf("building cxlbench and cxlserve: %w", err)
	}
	h := &harness{
		ctx:      ctx,
		root:     root,
		cxlbench: filepath.Join(bin, "cxlbench"),
		cxlserve: filepath.Join(bin, "cxlserve"),
		ids:      experiments.IDs(),
		golden:   map[string][]byte{},
	}
	dir := filepath.Join(root, "internal", "experiments", "testdata", "golden")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("reading the golden corpus: %w", err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		h.golden[e.Name()] = b
	}
	for _, id := range h.ids {
		g, ok := h.golden[id+".txt"]
		if !ok {
			return nil, fmt.Errorf("no golden table for %s", id)
		}
		h.regenWant = append(append(h.regenWant, g...), '\n')
	}
	return h, nil
}

// findRoot locates the repository root from the working directory: the
// root itself (bench/run.sh) or bench/ (go run .).
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "cxlserve", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("cxlmem sources not found: run from the repository root or from bench/")
}

// command prepares a child process that is killed if the harness dies or
// its context ends, so no run leaves a program behind.
func (h *harness) command(name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(h.ctx, name, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// daemon is one running cxlserve.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	stderr  bytes.Buffer
	done    chan struct{} // closed once the process has been waited for
	waitErr error
}

// startDaemon spawns cxlserve listening on addr (a loopback host:port that
// must be free) with the extra flags.
func (h *harness) startDaemon(addr string, args ...string) (*daemon, error) {
	if c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		c.Close()
		return nil, fmt.Errorf("port %s is already in use", addr)
	}
	d := &daemon{base: "http://" + addr, done: make(chan struct{})}
	d.cmd = h.command(h.cxlserve, append([]string{"-addr", addr}, args...)...)
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting cxlserve: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// waitHealthy polls /healthz until it answers 200.
func (d *daemon) waitHealthy() error {
	client := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-d.done:
			return fmt.Errorf("cxlserve exited before becoming healthy (%v): %s", d.waitErr, d.stderr.String())
		default:
		}
		if resp, err := client.Get(d.base + "/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return errors.New("cxlserve did not become healthy within 30s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM, kills it if the drain hangs, and
// waits for it. The error is the daemon's own failure: a nonzero exit.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return errors.New("cxlserve did not drain within 15s")
	}
	if d.waitErr != nil {
		return fmt.Errorf("cxlserve exited with %v: %s", d.waitErr, d.stderr.String())
	}
	return nil
}

// cpuTime is the process's user+system CPU time from /proc/<pid>/stat, at
// the kernel's 10 ms clock-tick resolution.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it are fixed.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	var ticks int64
	for _, f := range fields[11:13] { // utime, stime
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	const tick = 10 * time.Millisecond // USER_HZ is 100 on Linux
	return time.Duration(ticks) * tick, nil
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape reads the daemon's /metrics exposition into a map keyed by the
// full series name, labels included.
func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", resp.StatusCode)
	}
	m := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad /metrics line %q", line)
		}
		m[line[:i]] = v
	}
	return m, nil
}

// hostSample records the host's state over a pass: the CPU steal it
// suffered and how fast it ran. A shared host's other tenants can slow it
// by up to half for minutes at a time, so a fixed reference loop is timed
// between the pass's processes or windows and the pass's times are
// normalized by it (see normalize).
type hostSample struct {
	steal, total uint64
	refs         []float64
}

func startHostSample() (*hostSample, error) {
	steal, total, err := readCPUStat()
	if err != nil {
		return nil, err
	}
	s := &hostSample{steal: steal, total: total}
	s.sample()
	return s, nil
}

// sample times the reference loop three more times.
func (s *hostSample) sample() {
	for r := 0; r < 3; r++ {
		s.refs = append(s.refs, refLoopMs())
	}
}

// finish stores host.steal_share (stolen share of all CPU time since the
// start, from /proc/stat) and host.ref_ms (the reference loop's median) in
// o.
func (s *hostSample) finish(o *outcome) error {
	s.sample()
	steal, total, err := readCPUStat()
	if err != nil {
		return err
	}
	o.metrics["host.steal_share"] = float64(steal-s.steal) / float64(max(total-s.total, 1))
	o.metrics["host.ref_ms"] = median(s.refs)
	return nil
}

// readCPUStat returns the steal and total jiffies of all CPUs.
func readCPUStat() (steal, total uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, f := range fields[1:9] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// refSink keeps the reference loop from being optimized away.
var refSink uint64

// refLoopMs times the reference loop: four independent integer streams
// that keep the core's ALUs busy, the way the simulator's hot loops do. It
// slows with the host's contention much as the programs do; a dependent
// single-stream loop barely notices it.
func refLoopMs() float64 {
	t0 := time.Now()
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < 1<<22; i++ {
		a = a*6364136223846793005 + 1
		b = b*6364136223846793005 + 3
		c ^= c << 13
		c ^= c >> 7
		d += a ^ b ^ c
	}
	refSink += a + b + c + d
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}
