package report

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtvirt/internal/experiments"
	"rtvirt/internal/metrics"
	"rtvirt/internal/simtime"
)

func TestWriteCDF(t *testing.T) {
	var buf bytes.Buffer
	pts := []metrics.CDFPoint{
		{Latency: simtime.Micros(50), Fraction: 0.5},
		{Latency: simtime.Micros(100), Fraction: 1.0},
	}
	if err := WriteCDF(&buf, pts); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[1][0] != "50.000" || rows[2][1] != "1.000000" {
		t.Fatalf("cdf rows: %v", rows)
	}
}

func TestDirArtifacts(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDir(filepath.Join(dir, "out"))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.JSON("x.json", map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.CSV("y.csv", []string{"h"}, [][]string{{"1"}, {"2"}}); err != nil {
		t.Fatal(err)
	}
	if len(d.Written) != 2 {
		t.Fatalf("written: %v", d.Written)
	}
	raw, err := os.ReadFile(filepath.Join(d.Path(), "x.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]int
	if err := json.Unmarshal(raw, &m); err != nil || m["a"] != 1 {
		t.Fatalf("json round-trip: %v %v", m, err)
	}
}

func TestFigureWriters(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f3 := []experiments.Figure3Row{{Group: "H-Equiv", RTAReq: 2.07, RTXenClaimed: 3, RTXenAllocated: 2.28, RTVirtAllocated: 2.12}}
	if err := d.Figure3(f3); err != nil {
		t.Fatal(err)
	}
	f4 := experiments.Figure4Result{
		PerVM: map[string][]experiments.AllocationSample{
			"vm1": {{At: 0, CPUPercent: 100}},
		},
		RTAsRun: 3, AvgAllocated: 2, PeakAllocated: 3,
	}
	if err := d.Figure4(f4); err != nil {
		t.Fatal(err)
	}
	f5 := []experiments.Figure5Row{{
		Arm:  experiments.ArmRTVirt,
		P999: simtime.Micros(60),
		CDF:  []metrics.CDFPoint{{Latency: simtime.Micros(60), Fraction: 1}},
	}}
	if err := d.Figure5("fig5a", f5); err != nil {
		t.Fatal(err)
	}
	t4 := []experiments.Table4Row{{Scheduler: "RTVirt", P90: simtime.Micros(52), P999: simtime.Micros(58)}}
	if err := d.Table4(t4); err != nil {
		t.Fatal(err)
	}
	t6 := []experiments.Table6Row{{Framework: "RTVirt", RTAsAdmitted: 100, VMs: 10, VCPUs: 20}}
	if err := d.Table6("table6-multi.csv", t6); err != nil {
		t.Fatal(err)
	}
	want := []string{"fig3.csv", "fig3.json", "fig4.csv", "fig4.json",
		"fig5a-RTVirt.csv", "fig5a.json", "table4.csv", "table6-multi.csv"}
	for _, w := range want {
		found := false
		for _, got := range d.Written {
			if got == w {
				found = true
			}
		}
		if !found {
			t.Errorf("artifact %s not written (have %v)", w, d.Written)
		}
	}
}

func TestMoreWriters(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Robustness([]experiments.RobustnessResult{{Claim: "c", Held: 1, Runs: 1, Values: []float64{2}}}); err != nil {
		t.Fatal(err)
	}
	if len(d.Written) != 1 {
		t.Fatalf("written: %v", d.Written)
	}
}

// TestFigure4RowsInVMOrder checks that fig4.csv lists the VMs in name
// order, not in map iteration order, so the artifact is the same on every
// run.
func TestFigure4RowsInVMOrder(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := experiments.Figure4Result{PerVM: map[string][]experiments.AllocationSample{}}
	for _, vm := range []string{"vm3", "vm1", "vm4", "vm2", "vm6", "vm5", "vm8", "vm7"} {
		r.PerVM[vm] = []experiments.AllocationSample{{At: 0, CPUPercent: 10}}
	}
	if err := d.Figure4(r); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(d.Path(), "fig4.csv"))
	if err != nil {
		t.Fatal(err)
	}
	var vms []string
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n")[1:] {
		vms = append(vms, strings.SplitN(line, ",", 2)[0])
	}
	if got := strings.Join(vms, " "); got != "vm1 vm2 vm3 vm4 vm5 vm6 vm7 vm8" {
		t.Fatalf("fig4.csv VM order: %s", got)
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("RT-Xen A"); got != "RT_Xen_A" {
		t.Fatalf("sanitize = %q", got)
	}
	if !strings.HasPrefix(sanitize("abc123"), "abc123") {
		t.Fatal("alnum mangled")
	}
}
