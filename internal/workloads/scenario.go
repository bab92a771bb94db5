// The scenario spec language: one-line strings selecting a workload,
// variant and knob overrides, e.g.
//
//	ycsb:readmostly/policy=weighted:85,15/size=4G
//	dlrm/policy=cxl:63/threads=32
//	fio:64k/policy=cxl
//	fluid/platform=x16-quad
//
// Grammar: workload[:variant][/key=value]... with keys policy, size, qps,
// threads, ops, seed, device, platform. ParseScenario and Scenario.String
// round-trip, and String is the canonical form used as the memoization key
// for matrix cells.
package workloads

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"cxlmem/internal/sim"
	"cxlmem/internal/topo"
)

// parseFinite parses a float and rejects NaN/Inf: strconv accepts them, but
// a NaN knob defeats every range check (NaN < 0 is false) and — because
// String() omits fields via > 0 comparisons — would collide with the
// default cell's memoization key.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("workloads: non-finite value %q", s)
	}
	return v, nil
}

// Policy is the page-placement part of a scenario spec — the paper's
// numactl/weighted-interleave knob as text.
type Policy struct {
	// Spec is the canonical policy text: "ddr", "cxl", "interleave",
	// "weighted:D,C" (DDR weight, CXL weight) or "cxl:P" (percent). Empty
	// means the workload default.
	Spec string
	// CXLPercent is the derived share of pages on CXL memory, 0..100.
	CXLPercent float64
	// Set reports whether the scenario named a policy at all.
	Set bool
}

// ParsePolicy parses the policy=... value of a scenario spec.
func ParsePolicy(s string) (Policy, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	switch {
	case s == "ddr":
		return Policy{Spec: "ddr", CXLPercent: 0, Set: true}, nil
	case s == "cxl":
		return Policy{Spec: "cxl", CXLPercent: 100, Set: true}, nil
	case s == "interleave":
		return Policy{Spec: "interleave", CXLPercent: 50, Set: true}, nil
	case strings.HasPrefix(s, "cxl:"):
		p, err := parseFinite(s[len("cxl:"):])
		if err != nil || p < 0 || p > 100 {
			return Policy{}, fmt.Errorf("workloads: bad policy %q (want cxl:<0..100>)", s)
		}
		return Policy{Spec: fmt.Sprintf("cxl:%g", p), CXLPercent: p, Set: true}, nil
	case strings.HasPrefix(s, "weighted:"):
		parts := strings.Split(s[len("weighted:"):], ",")
		if len(parts) != 2 {
			return Policy{}, fmt.Errorf("workloads: bad policy %q (want weighted:<ddr>,<cxl>)", s)
		}
		ddr, err1 := parseFinite(strings.TrimSpace(parts[0]))
		cxl, err2 := parseFinite(strings.TrimSpace(parts[1]))
		if err1 != nil || err2 != nil || ddr < 0 || cxl < 0 || ddr+cxl <= 0 {
			return Policy{}, fmt.Errorf("workloads: bad policy weights %q", s)
		}
		return Policy{
			Spec:       fmt.Sprintf("weighted:%g,%g", ddr, cxl),
			CXLPercent: cxl / (ddr + cxl) * 100,
			Set:        true,
		}, nil
	default:
		return Policy{}, fmt.Errorf("workloads: unknown policy %q (want ddr, cxl, interleave, cxl:<pct> or weighted:<ddr>,<cxl>)", s)
	}
}

// The largest size=, ops= and qps= a spec may set. size= and ops= size a
// run's memory, and qps= is tpp-timeline's arrival rate, so its events and
// CPU time grow with it. A spec is outside input to cxlserve: without a cap
// one request could ask for more memory than the replica has, and the Go
// runtime ends a process that runs out of memory without a panic anyone can
// recover; nor can a request deadline stop a run once it has started. The
// largest values the repository itself uses are size=4G, the fuzz
// generator's ops=40099 and its qps=100000 (DESIGN.md §22).
const (
	maxSizeBytes = 16 << 30
	maxOps       = 1_000_000
	maxQPS       = 200_000
)

// Scenario is one parsed cell spec: a workload, an optional variant, and
// knob overrides applied on top of the workload's Defaults.
type Scenario struct {
	// Workload is the registry name.
	Workload string
	// Variant overrides Config.Variant when non-empty.
	Variant string
	// Policy overrides Config.CXLPercent when Policy.Set.
	Policy Policy
	// SizeBytes overrides Config.SizeBytes when positive.
	SizeBytes int64
	// TargetQPS overrides Config.TargetQPS when positive.
	TargetQPS float64
	// Threads overrides Config.Threads when positive.
	Threads int
	// Ops overrides Config.Ops when positive.
	Ops int
	// Seed overrides Config.Seed when non-zero.
	Seed uint64
	// Device overrides Config.Device when non-empty.
	Device string
	// Platform selects the registered platform profile the cell runs on;
	// empty keeps the environment's platform (the Table-1 default).
	Platform string
}

// ParseScenario parses a spec string and checks the workload exists in the
// registry. Variants and aliases are validated later, by the workload's Run.
func ParseScenario(spec string) (Scenario, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return Scenario{}, fmt.Errorf("workloads: empty scenario spec")
	}
	segs := strings.Split(spec, "/")
	head := strings.ToLower(strings.TrimSpace(segs[0]))
	var sc Scenario
	if name, variant, ok := strings.Cut(head, ":"); ok {
		sc.Workload, sc.Variant = name, variant
	} else {
		sc.Workload = head
	}
	if sc.Workload == "" {
		return Scenario{}, fmt.Errorf("workloads: spec %q names no workload", spec)
	}
	if _, err := Get(sc.Workload); err != nil {
		return Scenario{}, err
	}
	for _, seg := range segs[1:] {
		key, val, ok := strings.Cut(strings.TrimSpace(seg), "=")
		if !ok || val == "" {
			return Scenario{}, fmt.Errorf("workloads: spec segment %q is not key=value", seg)
		}
		var err error
		switch strings.ToLower(key) {
		case "policy":
			sc.Policy, err = ParsePolicy(val)
		case "size":
			sc.SizeBytes, err = ParseBytes(val)
			if err == nil && sc.SizeBytes > maxSizeBytes {
				err = fmt.Errorf("workloads: size %q is above the %s limit", val, FormatBytes(maxSizeBytes))
			}
		case "qps":
			sc.TargetQPS, err = parseFinite(val)
			if err == nil && sc.TargetQPS <= 0 {
				err = fmt.Errorf("workloads: qps must be positive, got %q", val)
			}
			if err == nil && sc.TargetQPS > maxQPS {
				err = fmt.Errorf("workloads: qps %q is above the %d limit", val, maxQPS)
			}
		case "threads":
			sc.Threads, err = strconv.Atoi(val)
			if err == nil && sc.Threads <= 0 {
				err = fmt.Errorf("workloads: threads must be positive, got %q", val)
			}
		case "ops":
			sc.Ops, err = strconv.Atoi(val)
			if err == nil && sc.Ops <= 0 {
				err = fmt.Errorf("workloads: ops must be positive, got %q", val)
			}
			if err == nil && sc.Ops > maxOps {
				err = fmt.Errorf("workloads: ops %q is above the %d limit", val, maxOps)
			}
		case "seed":
			sc.Seed, err = strconv.ParseUint(val, 10, 64)
		case "device":
			sc.Device = val
		case "platform":
			sc.Platform = strings.ToLower(val)
			if _, perr := topo.PlatformByName(sc.Platform); perr != nil {
				err = perr
			}
		default:
			err = fmt.Errorf("workloads: unknown spec key %q (want policy, size, qps, threads, ops, seed, device or platform)", key)
		}
		if err != nil {
			return Scenario{}, err
		}
	}
	return sc, nil
}

// String renders the canonical spec: the head, then the overridden keys in
// the fixed order policy, size, qps, threads, ops, seed, device, platform.
// It round-trips through ParseScenario and serves as the memoization key.
func (s Scenario) String() string {
	var b strings.Builder
	b.WriteString(s.Workload)
	if s.Variant != "" {
		b.WriteByte(':')
		b.WriteString(s.Variant)
	}
	if s.Policy.Set {
		b.WriteString("/policy=")
		b.WriteString(s.Policy.Spec)
	}
	if s.SizeBytes > 0 {
		b.WriteString("/size=")
		b.WriteString(FormatBytes(s.SizeBytes))
	}
	if s.TargetQPS > 0 {
		fmt.Fprintf(&b, "/qps=%g", s.TargetQPS)
	}
	if s.Threads > 0 {
		fmt.Fprintf(&b, "/threads=%d", s.Threads)
	}
	if s.Ops > 0 {
		fmt.Fprintf(&b, "/ops=%d", s.Ops)
	}
	if s.Seed != 0 {
		fmt.Fprintf(&b, "/seed=%d", s.Seed)
	}
	if s.Device != "" {
		b.WriteString("/device=")
		b.WriteString(s.Device)
	}
	if s.Platform != "" {
		b.WriteString("/platform=")
		b.WriteString(s.Platform)
	}
	return b.String()
}

// Apply overlays the scenario's overrides onto a workload's default config.
func (s Scenario) Apply(cfg Config) Config {
	if s.Variant != "" {
		cfg.Variant = s.Variant
	}
	if s.Policy.Set {
		cfg.CXLPercent = s.Policy.CXLPercent
	}
	if s.SizeBytes > 0 {
		cfg.SizeBytes = s.SizeBytes
	}
	if s.TargetQPS > 0 {
		cfg.TargetQPS = s.TargetQPS
	}
	if s.Threads > 0 {
		cfg.Threads = s.Threads
	}
	if s.Ops > 0 {
		cfg.Ops = s.Ops
	}
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	if s.Device != "" {
		cfg.Device = s.Device
	}
	return cfg
}

// Run resolves the scenario's workload and platform, applies its overrides,
// and runs it. A platform= key rebuilds the environment's system from the
// named profile; when the scenario names no device, the platform's default
// far device backs the run ("CXL-A" on the Table-1 default), so every
// workload's calibrated config is runnable on every platform.
func (s Scenario) Run(env *Env) (Metrics, error) {
	w, err := Get(s.Workload)
	if err != nil {
		return Metrics{}, err
	}
	env, cfg, err := s.resolve(env, w)
	if err != nil {
		return Metrics{}, err
	}
	return w.Run(env, cfg)
}

// Trace reruns an event-driven scenario exactly as Run does, with taps
// attached to its scheduler. A steady-state workload has no scheduler to
// tap, so Trace refuses it.
func (s Scenario) Trace(env *Env, taps ...sim.Tap) error {
	w, err := Get(s.Workload)
	if err != nil {
		return err
	}
	if w.Trace == nil {
		return fmt.Errorf("workloads: %s is not event-driven, so it has no event trace", s.Workload)
	}
	env, cfg, err := s.resolve(env, w)
	if err != nil {
		return err
	}
	return w.Trace(env, cfg, taps...)
}

// resolve builds the environment and config Run hands w: the scenario's
// platform and overrides on top of w's Defaults.
func (s Scenario) resolve(env *Env, w Workload) (*Env, Config, error) {
	env, err := env.ForPlatform(s.Platform)
	if err != nil {
		return nil, Config{}, err
	}
	cfg := s.Apply(w.Defaults)
	if s.Device == "" {
		if d := env.Sys.DefaultFarDevice(); d != "" {
			cfg.Device = d
		}
	}
	return env, cfg, nil
}

// ParseBytes parses a size literal: plain bytes or a K/M/G/T binary suffix
// ("4096", "64K", "512M", "4G"). A size that overflows int64 is an error.
func ParseBytes(lit string) (int64, error) {
	s := strings.ToUpper(strings.TrimSpace(lit))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, s[:len(s)-1]
	case strings.HasSuffix(s, "T"):
		mult, s = 1<<40, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("workloads: bad size %q (want e.g. 4096, 64K, 512M, 4G)", s)
	}
	if n > math.MaxInt64/mult {
		return 0, fmt.Errorf("workloads: size %q overflows int64", lit)
	}
	return n * mult, nil
}

// FormatBytes renders a byte count with the largest binary suffix that
// divides it evenly — the inverse of ParseBytes for suffix-friendly values.
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<40 && n%(1<<40) == 0:
		return fmt.Sprintf("%dT", n>>40)
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dG", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprintf("%d", n)
	}
}
