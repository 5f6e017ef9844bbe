package experiments

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"rtvirt/internal/hv"
	"rtvirt/internal/simtime"
)

// TestFig3ExplicitDefaultCostsIdentical pins a property of the default
// (all-constant) cost model: threading an explicit DefaultCosts through
// the config changes no Figure-3 row against the nil (implicit default)
// path — the constant model never touches the cost RNG stream, so no run
// can observe which way it was plumbed.
func TestFig3ExplicitDefaultCostsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("several experiment runs")
	}
	cfg := Figure3Config{Seed: 1, Duration: 2 * simtime.Second, PCPUs: 15, Requests: 10}
	implicit := Figure3(cfg)
	def := hv.DefaultCosts()
	cfg.Costs = &def
	if explicit := Figure3(cfg); !reflect.DeepEqual(implicit, explicit) {
		t.Errorf("explicit DefaultCosts differs from the implicit default:\nnil:      %+v\nexplicit: %+v", implicit, explicit)
	}
}

// TestCalibratedCostsDeterministic checks a noisy-cost experiment is still
// a pure function of its seed: the cost stream is derived, not shared, so
// re-running the same config reproduces every row exactly.
func TestCalibratedCostsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("several experiment runs")
	}
	calib := hv.CalibratedCosts()
	cfg := Table6Config{Seed: 3, Duration: 2 * simtime.Second, PCPUs: 15, Costs: &calib}
	a := Table6(MultiRTAVMs, cfg)
	b := Table6(MultiRTAVMs, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("calibrated Table 6 not reproducible:\nfirst:  %+v\nsecond: %+v", a, b)
	}
	def := Table6(MultiRTAVMs, Table6Config{Seed: 3, Duration: 2 * simtime.Second, PCPUs: 15})
	if a[0].CtxSwitchTime == def[0].CtxSwitchTime && a[0].ScheduleTime == def[0].ScheduleTime {
		t.Error("calibrated run matches constant run exactly — noise not applied")
	}
}

// TestFidelityAblationSmoke runs the full constant-vs-calibrated ablation
// at a short horizon and checks the report's shape: one row per Figure-3
// group plus the Table-6 trio, a described calibrated model, and a JSON
// encoding fit for the fidelity.json artifact.
func TestFidelityAblationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("2×(12+2) simulations")
	}
	cfg := DefaultFidelityConfig()
	cfg.Duration = simtime.Seconds(2)
	res := FidelityAblation(cfg)
	wantRows := len(Table1Groups()) + 3
	if len(res.Rows) != wantRows {
		t.Fatalf("rows = %d, want %d", len(res.Rows), wantRows)
	}
	if len(res.Calib) != 11 {
		t.Errorf("calibrated_model has %d terms, want 11", len(res.Calib))
	}
	out := RenderFidelity(res)
	if !strings.Contains(out, "scheduler comparisons robust") {
		t.Errorf("render missing the robustness footer:\n%s", out)
	}
	buf, err := json.Marshal(&res)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back FidelityResult
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(res.Rows, back.Rows) {
		t.Error("rows do not survive the JSON round trip")
	}
}
