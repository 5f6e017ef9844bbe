package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"rtvirt/internal/simtime"
)

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitName   = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	var b benchmarkFile
	if err := readJSON("../../BENCHMARK.json", &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMetricsMatchBenchmarkJSON checks BENCHMARK.json against the contract
// and against the metrics and workloads this program reports.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmark(t)
	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 || len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; want 1-16 and 1-128", len(b.EndToEnd), len(b.PerLayer))
	}
	seen := map[string]bool{}
	var e2e []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better: %+v", m)
		}
	}
	for _, m := range append(e2e, b.PerLayer...) {
		if !metricName.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
		if !unitName.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bad unit %q or better %q", m.Name, m.Unit, m.Better)
		}
	}
	if !seen["setup_s"] {
		t.Error("BENCHMARK.json has no setup_s")
	}
	if !equalDefs(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, the benchmark reports %v", e2e, endToEnd)
	}
	if !equalDefs(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, the benchmark reports %v", b.PerLayer, perLayer)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var listed []string
	for _, w := range b.Workloads {
		listed = append(listed, w.Name)
		if !metricName.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload entry %+v is malformed", w)
		}
	}
	if strings.Join(listed, ",") != strings.Join(names, ",") {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark runs %v", listed, names)
	}
}

func equalDefs(a, b []metricDef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fakeRun is a passed run with plausible values.
func fakeRun(traced bool, wall float64) runResult {
	r := runResult{Workload: "w", Traced: traced, Digest: "d", SetupS: 0.01, RunS: wall - 0.02, WallS: wall,
		Speed: 0.5, CPUS: wall, SimS: 100, AllocMiB: 50, PeakRSSMiB: 10,
		Meters: meters{Events: 1000, Windows: 10, ScheduleCalls: 100, OverheadNS: 1, CapacityNS: 100}}
	if traced {
		r.LayerNS = map[string]int64{"eventq": int64(wall * 0.5e9), "sched.rtxen": int64(wall * 0.4e9)}
	}
	return r
}

func keys(m map[string]metricValue) map[string]bool {
	out := map[string]bool{}
	for k := range m {
		out[k] = true
	}
	return out
}

func TestReportKeysMatchMetricLists(t *testing.T) {
	w := benchWorkload{name: "w", world: "w"}
	runs := []runResult{fakeRun(false, 2), fakeRun(true, 2.2), fakeRun(false, 2.1), fakeRun(true, 2.3)}
	rep := summarize(w, runs, "")
	if rep.Failed != 0 {
		t.Fatalf("failed = %d, want 0", rep.Failed)
	}
	for _, c := range []struct {
		defs []metricDef
		got  map[string]metricValue
	}{{endToEnd, rep.EndToEnd}, {perLayer, rep.PerLayer}} {
		got := keys(c.got)
		if len(got) != len(c.defs) {
			t.Errorf("report has %d metrics, want %d", len(got), len(c.defs))
		}
		for _, d := range c.defs {
			if !got[d.Name] || c.got[d.Name].Unit != d.Unit {
				t.Errorf("report lacks %s in %s", d.Name, d.Unit)
			}
		}
	}
	if v := rep.EndToEnd["wall_ref_s"].Value; v != 1.025 {
		t.Errorf("wall_ref_s = %v, want the median 2.05 s at speed 0.5", v)
	}
	if v := rep.PerLayer["eventq.self_pct"].Value; v < 49.9 || v > 50.1 {
		t.Errorf("eventq.self_pct = %v, want 50", v)
	}
	if v := rep.PerLayer["unattributed_pct"].Value; v < 9.9 || v > 10.1 {
		t.Errorf("unattributed_pct = %v, want the unsampled 10", v)
	}
}

// TestCorruptGoldenFailsRuns runs a short world twice, then checks the runs
// pass against their own digest as golden and fail against a corrupted one,
// with a non-zero exit code.
func TestCorruptGoldenFailsRuns(t *testing.T) {
	w := benchWorkload{name: "fig5a-1s", world: "fig5a-1s",
		build: func(seed uint64) []func() world { return figure5aWorlds(seed, simtime.Seconds(1)) }}
	var runs []runResult
	for i := 0; i < 2; i++ {
		r, err := runOnce(w, 1, false, profiles{})
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
	}
	good := runs[0].Digest
	defer delete(goldens.Digests, w.world)
	for _, c := range []struct {
		golden     string
		wantFailed int
	}{{good, 0}, {strings.Repeat("0", 64), 2}, {good[:63] + "x", 2}} {
		goldens.Digests[w.world] = c.golden
		rep := summarize(w, append([]runResult(nil), runs...), goldenDigest(w, 1))
		if rep.Failed != c.wantFailed {
			t.Errorf("golden %.8s…: %d failed runs, want %d", c.golden, rep.Failed, c.wantFailed)
		}
		if code := finish([]workloadReport{rep}, 1, "", rep.Failed); (code != 0) != (c.wantFailed > 0) {
			t.Errorf("golden %.8s…: exit code %d with %d failed runs", c.golden, code, rep.Failed)
		}
	}
	// Without a golden the runs must still agree with each other.
	runs[1].Digest = strings.Repeat("1", 64)
	if rep := summarize(w, runs, goldenDigest(w, 2)); rep.Failed != 1 {
		t.Errorf("disagreeing runs: %d failed, want 1", rep.Failed)
	}
}

func TestCompareAppliesBounds(t *testing.T) {
	bench := benchmarkFile{EndToEnd: []boundedMetric{
		{metricDef{"wall_ref_s", "s", "lower"}, 0.10},
		{metricDef{"sim_s_per_ref_s", "sim-s/s", "higher"}, 0.10},
		{metricDef{"setup_s", "s", "lower"}, 0.25},
	}}
	mk := func(wall, rate, setup float64, failed int) report {
		return report{Workloads: []workloadReport{{Name: "w", Attempts: 3, Failed: failed,
			EndToEnd: map[string]metricValue{"wall_ref_s": {wall, "s"},
				"sim_s_per_ref_s": {rate, "sim-s/s"}, "setup_s": {setup, "s"}}}}}
	}
	base := mk(2, 100, 0.001, 0)
	cases := []struct {
		name string
		cur  report
		want int
	}{
		{"same", mk(2, 100, 0.001, 0), 0},
		{"within bounds", mk(2.19, 91, 0.0012, 0), 0},
		{"faster", mk(1, 200, 0.0005, 0), 0},
		{"slower wall", mk(2.3, 100, 0.001, 0), 1},
		{"lower rate", mk(2, 85, 0.001, 0), 1},
		{"setup under the floor", mk(2, 100, 0.004, 0), 0},
		{"setup over the floor", mk(2, 100, 0.008, 0), 1},
		{"failed runs", mk(2, 100, 0.001, 1), 1},
		{"missing workload", report{}, 1},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if got := compareReports(bench, base, c.cur, &out); got != c.want {
			t.Errorf("%s: %d regressions, want %d\n%s", c.name, got, c.want, out.String())
		}
	}
}
