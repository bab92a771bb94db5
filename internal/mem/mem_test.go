package mem

import (
	"math"
	"testing"
	"testing/quick"

	"cxlmem/internal/sim"
)

func TestInstrTypeStrings(t *testing.T) {
	want := map[InstrType]string{Load: "ld", NTLoad: "nt-ld", Store: "st", NTStore: "nt-st"}
	for ty, s := range want {
		if ty.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(ty), ty.String(), s)
		}
	}
	if !Store.IsWrite() || !NTStore.IsWrite() || Load.IsWrite() || NTLoad.IsWrite() {
		t.Error("IsWrite misclassifies instruction types")
	}
	if len(InstrTypes()) != 4 {
		t.Error("InstrTypes should list 4 types")
	}
}

func TestMixPointWriteFractions(t *testing.T) {
	cases := map[MixPoint]float64{AllRead: 0, RW31: 0.25, RW21: 1.0 / 3.0, RW11: 0.5}
	for m, wf := range cases {
		if got := m.WriteFraction(); math.Abs(got-wf) > 1e-12 {
			t.Errorf("%v.WriteFraction() = %v, want %v", m, got, wf)
		}
	}
	if len(MixPoints()) != 4 {
		t.Error("MixPoints should list 4 mixes")
	}
}

func TestStandardDevicesValidate(t *testing.T) {
	devs := []*Device{DDR5Local(8), DDR5Local(2), DDR5Remote(), CXLA(), CXLB(), CXLC()}
	for _, d := range devs {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}

func TestPeakBandwidthMatchesTable1(t *testing.T) {
	cases := []struct {
		dev  *Device
		peak float64
	}{
		{DDR5Local(8), 307.2},
		{DDR5Local(2), 76.8},
		{DDR5Remote(), 38.4},
		{CXLA(), 38.4},
		{CXLB(), 38.4}, // 2 × 19.2
		{CXLC(), 25.6},
	}
	for _, c := range cases {
		if got := c.dev.PeakGBs(); math.Abs(got-c.peak) > 1e-9 {
			t.Errorf("%s peak = %v GB/s, want %v", c.dev.Name, got, c.peak)
		}
	}
}

// TestFig4aEfficiencies pins the calibrated all-read efficiencies to the
// values the paper reports in §4.2 (O4): 70 %, 46 %, 47 %, 20 %.
func TestFig4aEfficiencies(t *testing.T) {
	cases := []struct {
		dev  *Device
		want float64
	}{
		{DDR5Remote(), 0.70},
		{CXLA(), 0.46},
		{CXLB(), 0.47},
		{CXLC(), 0.20},
	}
	for _, c := range cases {
		if got := c.dev.Ctrl.MixEff[AllRead]; math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s all-read efficiency = %v, want %v", c.dev.Name, got, c.want)
		}
	}
}

// TestPaperEfficiencyRelations checks the relative claims of §4.2 that the
// application-level results depend on.
func TestPaperEfficiencyRelations(t *testing.T) {
	r, a, b, c := DDR5Remote(), CXLA(), CXLB(), CXLC()

	// O4: CXL-A beats DDR5-R by ~23 points at the 2:1 read:write mix.
	if diff := a.Ctrl.MixEff[RW21] - r.Ctrl.MixEff[RW21]; math.Abs(diff-0.23) > 0.02 {
		t.Errorf("2:1 efficiency gap CXL-A minus DDR5-R = %v, want ~0.23", diff)
	}
	// Fig 4b: CXL-B edges CXL-A by ~1 point for ld and nt-ld.
	for _, ty := range []InstrType{Load, NTLoad} {
		if diff := b.EffInstr(ty) - a.EffInstr(ty); diff < 0.005 || diff > 0.03 {
			t.Errorf("%v: CXL-B minus CXL-A = %v, want ~0.01", ty, diff)
		}
	}
	// Fig 4b: CXL-C trails CXL-B by ~26 points for loads.
	if diff := b.EffInstr(Load) - c.EffInstr(Load); math.Abs(diff-0.26) > 0.02 {
		t.Errorf("ld: CXL-B minus CXL-C = %v, want ~0.26", diff)
	}
	// O5: st degradation vs ld is 74 % for DDR5-R, 31 % for CXL-A,
	// 59 % for CXL-B, 15 % for CXL-C.
	drops := []struct {
		dev  *Device
		want float64
	}{{r, 0.74}, {a, 0.31}, {b, 0.59}, {c, 0.15}}
	for _, d := range drops {
		got := 1 - d.dev.EffInstr(Store)/d.dev.EffInstr(Load)
		if math.Abs(got-d.want) > 0.03 {
			t.Errorf("%s st drop vs ld = %v, want ~%v", d.dev.Name, got, d.want)
		}
	}
	// O5: for st, CXL-A leads DDR5-R by ~12 points and CXL-B by ~1 point.
	if diff := a.EffInstr(Store) - r.EffInstr(Store); diff < 0.10 || diff > 0.16 {
		t.Errorf("st gap CXL-A minus DDR5-R = %v, want ~0.12", diff)
	}
	if diff := b.EffInstr(Store) - r.EffInstr(Store); diff < 0.005 || diff > 0.03 {
		t.Errorf("st gap CXL-B minus DDR5-R = %v, want ~0.01", diff)
	}
	// O5: the nt-st gap between DDR5-R and CXL-A shrinks to ~6 points and
	// CXL-B matches DDR5-R.
	if diff := r.EffInstr(NTStore) - a.EffInstr(NTStore); math.Abs(diff-0.06) > 0.02 {
		t.Errorf("nt-st gap DDR5-R minus CXL-A = %v, want ~0.06", diff)
	}
	if diff := math.Abs(b.EffInstr(NTStore) - r.EffInstr(NTStore)); diff > 0.01 {
		t.Errorf("nt-st CXL-B vs DDR5-R differ by %v, want ~0", diff)
	}
	// nt-ld: DDR5-R leads CXL-A by ~26 points.
	if diff := r.EffInstr(NTLoad) - a.EffInstr(NTLoad); math.Abs(diff-0.26) > 0.02 {
		t.Errorf("nt-ld gap DDR5-R minus CXL-A = %v, want ~0.26", diff)
	}
}

func TestEffWriteFractionInterpolates(t *testing.T) {
	d := CXLA()
	// Exact table points.
	for _, m := range MixPoints() {
		if got := d.EffWriteFraction(m.WriteFraction()); math.Abs(got-d.Ctrl.MixEff[m]) > 1e-9 {
			t.Errorf("wf=%v: %v, want table value %v", m.WriteFraction(), got, d.Ctrl.MixEff[m])
		}
	}
	// Midpoint between all-read (0.46) and 3:1 (0.60).
	if got := d.EffWriteFraction(0.125); math.Abs(got-0.53) > 1e-9 {
		t.Errorf("wf=0.125: %v, want 0.53", got)
	}
	// Clamps beyond 1:1 and below 0.
	if got := d.EffWriteFraction(0.9); got != d.Ctrl.MixEff[RW11] {
		t.Errorf("wf=0.9 should clamp to 1:1 value, got %v", got)
	}
	if got := d.EffWriteFraction(-0.1); got != d.Ctrl.MixEff[AllRead] {
		t.Errorf("wf=-0.1 should clamp to all-read value, got %v", got)
	}
}

func TestEffWriteFractionBoundsProperty(t *testing.T) {
	devs := []*Device{DDR5Local(8), DDR5Remote(), CXLA(), CXLB(), CXLC()}
	f := func(wfRaw uint16) bool {
		wf := float64(wfRaw%1001) / 1000
		for _, d := range devs {
			e := d.EffWriteFraction(wf)
			if e <= 0 || e > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQueueFactor(t *testing.T) {
	if QueueFactor(0) != 1 {
		t.Error("idle queue factor must be 1")
	}
	if QueueFactor(-1) != 1 {
		t.Error("negative utilization should clamp to 1")
	}
	prev := 1.0
	for u := 0.05; u <= 1.0; u += 0.05 {
		f := QueueFactor(u)
		if f < prev {
			t.Errorf("QueueFactor not monotone at u=%v: %v < %v", u, f, prev)
		}
		prev = f
	}
	// Saturated factor is finite and substantial.
	sat := QueueFactor(1)
	if sat < 3 || sat > 20 {
		t.Errorf("QueueFactor(1) = %v, want a finite multiple in [3,20]", sat)
	}
}

func TestServeUnderCapacity(t *testing.T) {
	d := CXLA() // 38.4 GB/s × 0.46 all-read = 17.664 GB/s effective
	window := sim.Millisecond
	dem := Demand{ReadBytes: 1e6} // 1 MB in 1 ms = 1 GB/s: far below capacity
	s := d.Serve(dem, window)
	if s.ReadBytes != dem.ReadBytes || s.WriteBytes != 0 {
		t.Errorf("under capacity, demand should be fully served: %+v", s)
	}
	wantU := 1.0 / (38.4 * 0.46)
	if math.Abs(s.Utilization-wantU) > 1e-6 {
		t.Errorf("utilization = %v, want %v", s.Utilization, wantU)
	}
	if s.LatencyFactor < 1 || s.LatencyFactor > 1.05 {
		t.Errorf("lightly loaded latency factor = %v", s.LatencyFactor)
	}
}

func TestServeOverCapacity(t *testing.T) {
	d := CXLA()
	window := sim.Millisecond
	// Effective all-read capacity over 1 ms: 17.664 GB/s × 1e6 ns = 17.664e6 B.
	capacity := d.EffectiveGBs(0) * window.Nanoseconds()
	dem := Demand{ReadBytes: 3 * capacity, WriteBytes: capacity}
	s := d.Serve(dem, window)
	// Proportional scaling preserves the read:write ratio.
	if math.Abs(s.ReadBytes/s.WriteBytes-3) > 1e-9 {
		t.Errorf("scaling broke the R:W ratio: %v", s.ReadBytes/s.WriteBytes)
	}
	// Total equals capacity at the demand's write fraction.
	wantTotal := d.EffectiveGBs(0.25) * window.Nanoseconds()
	if math.Abs(s.Total()-wantTotal) > 1 {
		t.Errorf("served total = %v, want %v", s.Total(), wantTotal)
	}
	if s.Utilization != 1 {
		t.Errorf("oversubscribed utilization = %v, want 1", s.Utilization)
	}
	if s.LatencyFactor <= 1.5 {
		t.Errorf("saturated latency factor = %v, want well above 1", s.LatencyFactor)
	}
}

func TestServeEmptyDemand(t *testing.T) {
	d := DDR5Local(8)
	s := d.Serve(Demand{}, sim.Millisecond)
	if s.Total() != 0 || s.Utilization != 0 || s.LatencyFactor != 1 {
		t.Errorf("empty demand: %+v", s)
	}
}

func TestServePanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Serve with zero window should panic")
		}
	}()
	DDR5Local(8).Serve(Demand{ReadBytes: 1}, 0)
}

func TestServeConservationProperty(t *testing.T) {
	// Property: served never exceeds demand, never exceeds capacity, and
	// utilization is in [0, 1].
	devs := []*Device{DDR5Local(2), DDR5Remote(), CXLA(), CXLB(), CXLC()}
	f := func(r, w uint32, di uint8) bool {
		d := devs[int(di)%len(devs)]
		dem := Demand{ReadBytes: float64(r), WriteBytes: float64(w)}
		s := d.Serve(dem, sim.Millisecond)
		capacity := d.EffectiveGBs(dem.WriteFraction()) * sim.Millisecond.Nanoseconds()
		return s.ReadBytes <= dem.ReadBytes+1e-6 &&
			s.WriteBytes <= dem.WriteBytes+1e-6 &&
			s.Total() <= capacity+1e-3 &&
			s.Utilization >= 0 && s.Utilization <= 1 &&
			s.LatencyFactor >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestControllerValidateRejectsBadTables(t *testing.T) {
	c := hostController()
	c.MixEff[0] = 0
	if err := c.Validate(); err == nil {
		t.Error("zero efficiency should fail validation")
	}
	c = hostController()
	c.InstrEff[2] = 1.5
	if err := c.Validate(); err == nil {
		t.Error("efficiency > 1 should fail validation")
	}
	c = hostController()
	c.PortLatency = -1
	if err := c.Validate(); err == nil {
		t.Error("negative port latency should fail validation")
	}
}

func TestDeviceValidateRejectsBadConfig(t *testing.T) {
	d := CXLA()
	d.Channels = 0
	if err := d.Validate(); err == nil {
		t.Error("zero channels should fail validation")
	}
	d = CXLA()
	d.CapacityBytes = 0
	if err := d.Validate(); err == nil {
		t.Error("zero capacity should fail validation")
	}
}

func TestIPKindStrings(t *testing.T) {
	if HostMC.String() != "Host MC" || HardIP.String() != "Hard IP" || SoftIP.String() != "Soft IP" {
		t.Error("IPKind strings wrong")
	}
}
