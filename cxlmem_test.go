package cxlmem

import (
	"slices"
	"strings"
	"testing"

	"cxlmem/internal/telemetry"
	"cxlmem/internal/topo"
	"cxlmem/internal/workloads/dlrm"
)

func TestNewSystems(t *testing.T) {
	app := NewSystem()
	if app.Hier.Config().SNCNodes != 4 || app.DDRLocal.Device.Channels != 2 {
		t.Error("NewSystem should match the paper's §5 setup")
	}
}

func TestExperimentsListed(t *testing.T) {
	infos := Experiments()
	if len(infos) != 29 {
		t.Errorf("expected 29 experiments, got %d", len(infos))
	}
	for _, info := range infos {
		if info.ID == "" || info.Desc == "" {
			t.Errorf("incomplete info: %+v", info)
		}
	}
}

// render emits a run's dataset as text, failing the test on either error.
func render(t *testing.T, d *Dataset, err error) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	out, err := Emit(d, "text")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestScenarioFacade(t *testing.T) {
	if got := len(ScenarioWorkloads()); got != 8 {
		t.Errorf("expected 8 scenario workloads, got %d", got)
	}
	d, err := RunScenarioDataset("fluid/policy=interleave/size=64M", RunConfig{Quick: true})
	out := render(t, d, err)
	if !strings.Contains(out, "system_bw") {
		t.Errorf("scenario rendering missing primary metric:\n%s", out)
	}
	if _, err := RunScenarioDataset("nope", RunConfig{}); err == nil {
		t.Error("unknown scenario workload should error")
	}
	if _, err := RunScenarioDataset("ycsb/flavor=mild", RunConfig{}); err == nil {
		t.Error("bad spec key should error")
	}
	if !strings.Contains(ScenarioCatalog(), "| `ycsb` |") {
		t.Error("catalog missing ycsb row")
	}
}

func TestPlatformFacade(t *testing.T) {
	infos := Platforms()
	if len(infos) < 4 {
		t.Fatalf("expected >= 4 platforms, got %d", len(infos))
	}
	if infos[0].Name != "table1" || len(infos[0].Devices) != 4 {
		t.Errorf("default platform should lead with its 4 devices: %+v", infos[0])
	}
	if i := slices.IndexFunc(infos, func(p PlatformInfo) bool { return p.Name == "x16-quad" }); i < 0 || len(infos[i].Devices) != 4 {
		t.Errorf("x16-quad should be listed with 4 far devices: %+v", infos)
	}
	if !strings.Contains(PlatformCatalog(), "| `x16-quad` |") {
		t.Error("catalog missing x16-quad row")
	}
	d, err := RunScenarioDataset("fluid", RunConfig{Quick: true, Platform: "snc-off"})
	out := render(t, d, err)
	if !strings.Contains(out, "system_bw") {
		t.Errorf("platformed scenario rendering missing primary metric:\n%s", out)
	}
	if _, err := RunScenarioDataset("fluid", RunConfig{Platform: "nope"}); err == nil {
		t.Error("unknown RunConfig platform should error")
	}
	// Platform names normalize like the platform= spec key does.
	if _, err := RunScenarioDataset("fluid", RunConfig{Quick: true, Platform: "SNC-OFF"}); err != nil {
		t.Errorf("uppercase platform name should normalize: %v", err)
	}
	// A bad platform must surface as an error from the matrix experiments,
	// not as a panic inside their code-defined-cells-cannot-fail drivers.
	if _, err := RunDataset("matrix-apps", RunConfig{Quick: true, Platform: "nope"}); err == nil {
		t.Error("unknown platform should fail matrix experiments cleanly")
	}
}

func TestRunExperiment(t *testing.T) {
	d, err := RunDataset("table1", RunConfig{Quick: true})
	out := render(t, d, err)
	if !strings.Contains(out, "CXL-A") {
		t.Error("table1 output missing CXL-A")
	}
	if _, err := RunDataset("nope", RunConfig{}); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestCaptionFacade(t *testing.T) {
	sys := topo.NewSystem(topo.DefaultConfig())
	cfg := dlrm.DefaultConfig()
	var sweep []telemetry.Sample
	var thr []float64
	base := dlrm.Run(sys, cfg, "CXL-A", 0, 24, dlrm.SNCAlone).QueriesPerSec
	for r := 0.0; r <= 100; r += 10 {
		res := dlrm.Run(sys, cfg, "CXL-A", r, 24, dlrm.SNCAlone)
		sweep = append(sweep, res.Sample)
		thr = append(thr, res.QueriesPerSec/base)
	}

	policy := NewPolicy(50)
	caption, err := NewCaption(sweep, thr, policy)
	if err != nil {
		t.Fatal(err)
	}
	ratio := caption.Ratio()
	for i := 0; i < 30; i++ {
		res := dlrm.Run(sys, cfg, "CXL-A", ratio, 32, dlrm.SNCAlone)
		_, next, err := caption.Observe(res.Sample)
		if err != nil {
			t.Fatal(err)
		}
		ratio = next
	}
	// The policy must track the controller.
	if policy.CXLPercent() != caption.Ratio() {
		t.Errorf("policy %v%% != controller %v%%", policy.CXLPercent(), caption.Ratio())
	}
	// Tuned DLRM should comfortably beat DDR-only (interior optimum ~48%).
	res := dlrm.Run(sys, cfg, "CXL-A", caption.Ratio(), 32, dlrm.SNCAlone)
	ddr := dlrm.Run(sys, cfg, "CXL-A", 0, 32, dlrm.SNCAlone)
	if res.QueriesPerSec < 1.2*ddr.QueriesPerSec {
		t.Errorf("caption-tuned throughput %.2fM should beat DDR-only %.2fM by >20%%",
			res.QueriesPerSec/1e6, ddr.QueriesPerSec/1e6)
	}
}

func TestNewCaptionValidation(t *testing.T) {
	if _, err := NewCaption(nil, nil, nil); err == nil {
		t.Error("nil policy should error")
	}
	if _, err := NewCaption(make([]telemetry.Sample, 2), []float64{1, 2}, NewPolicy(50)); err == nil {
		t.Error("degenerate sweep should error")
	}
}
