// Package report writes experiment results as machine-readable artifacts
// (CSV series and JSON documents) so the paper's figures can be re-plotted
// from a run of cmd/rtvirt-bench.
package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"rtvirt/internal/experiments"
	"rtvirt/internal/metrics"
	"rtvirt/internal/trace"
)

// Dir manages an output directory of artifacts.
type Dir struct {
	path string
	// Written lists the artifact files created, relative to the directory.
	Written []string
}

// NewDir creates (if needed) the output directory.
func NewDir(path string) (*Dir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	return &Dir{path: path}, nil
}

// Path reports the directory.
func (d *Dir) Path() string { return d.path }

func (d *Dir) create(name string) (*os.File, error) {
	f, err := os.Create(filepath.Join(d.path, name))
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	d.Written = append(d.Written, name)
	return f, nil
}

// JSON writes v as an indented JSON document.
func (d *Dir) JSON(name string, v any) error {
	f, err := d.create(name)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// CSV writes a header plus rows.
func (d *Dir) CSV(name string, header []string, rows [][]string) error {
	f, err := d.create(name)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		if err := w.Write(r); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

// WriteCDF writes a latency CDF as (latency_us, fraction) rows — the raw
// material of the paper's Figure 5 curves.
func WriteCDF(w io.Writer, pts []metrics.CDFPoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"latency_us", "cdf"}); err != nil {
		return err
	}
	for _, p := range pts {
		if err := cw.Write([]string{
			strconv.FormatFloat(p.Latency.Micros(), 'f', 3, 64),
			strconv.FormatFloat(p.Fraction, 'f', 6, 64),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Figure3 writes the bandwidth rows as fig3.csv and fig3.json.
func (d *Dir) Figure3(rows []experiments.Figure3Row) error {
	var csvRows [][]string
	for _, r := range rows {
		csvRows = append(csvRows, []string{
			r.Group,
			fmt.Sprintf("%.4f", r.RTAReq),
			fmt.Sprintf("%.4f", r.RTXenClaimed),
			fmt.Sprintf("%.4f", r.RTXenAllocated),
			fmt.Sprintf("%.4f", r.RTVirtAllocated),
			fmt.Sprintf("%.6f", r.RTXenMisses.Ratio()),
			fmt.Sprintf("%.6f", r.RTVirtMisses.Ratio()),
		})
	}
	if err := d.CSV("fig3.csv", []string{
		"group", "rta_req_cpus", "rtxen_claimed_cpus", "rtxen_alloc_cpus",
		"rtvirt_alloc_cpus", "rtxen_miss_ratio", "rtvirt_miss_ratio",
	}, csvRows); err != nil {
		return err
	}
	return d.JSON("fig3.json", rows)
}

// Figure4 writes the per-VM allocation series as fig4.csv, VMs in name
// order, plus the summary as fig4.json.
func (d *Dir) Figure4(r experiments.Figure4Result) error {
	vms := make([]string, 0, len(r.PerVM))
	for vm := range r.PerVM {
		vms = append(vms, vm)
	}
	slices.Sort(vms)
	var csvRows [][]string
	for _, vm := range vms {
		for _, s := range r.PerVM[vm] {
			csvRows = append(csvRows, []string{
				vm,
				fmt.Sprintf("%.3f", s.At.Seconds()),
				fmt.Sprintf("%.2f", s.CPUPercent),
			})
		}
	}
	if err := d.CSV("fig4.csv", []string{"vm", "t_s", "cpu_percent"}, csvRows); err != nil {
		return err
	}
	return d.JSON("fig4.json", struct {
		RTAsRun         int
		Rejected        int
		TasksWithMisses int
		WorstMissPct    float64
		AvgAllocated    float64
		PeakAllocated   float64
	}{r.RTAsRun, r.Rejected, r.TasksWithMisses, r.WorstMissPct, r.AvgAllocated, r.PeakAllocated})
}

// Figure5 writes each arm's latency CDF as <prefix>-<arm>.csv and the row
// summary as <prefix>.json.
func (d *Dir) Figure5(prefix string, rows []experiments.Figure5Row) error {
	for _, r := range rows {
		name := fmt.Sprintf("%s-%s.csv", prefix, sanitize(string(r.Arm)))
		f, err := d.create(name)
		if err != nil {
			return err
		}
		if err := WriteCDF(f, r.CDF); err != nil {
			f.Close()
			return err
		}
		f.Close()
	}
	type summary struct {
		Arm         string
		P999us      float64
		Meanus      float64
		SLOMet      bool
		AllocatedBW float64
		ClaimedCPUs int
		VideoMiss   float64
	}
	var out []summary
	for _, r := range rows {
		out = append(out, summary{
			Arm: string(r.Arm), P999us: r.P999.Micros(), Meanus: r.Mean.Micros(),
			SLOMet: r.SLOMet, AllocatedBW: r.AllocatedBW, ClaimedCPUs: r.ClaimedCPUs,
			VideoMiss: r.VideoMisses.Ratio(),
		})
	}
	return d.JSON(prefix+".json", out)
}

// Table4 writes the dedicated-CPU latency table.
func (d *Dir) Table4(rows []experiments.Table4Row) error {
	var csvRows [][]string
	for _, r := range rows {
		csvRows = append(csvRows, []string{
			string(r.Scheduler),
			fmt.Sprintf("%.3f", r.P90.Micros()),
			fmt.Sprintf("%.3f", r.P95.Micros()),
			fmt.Sprintf("%.3f", r.P99.Micros()),
			fmt.Sprintf("%.3f", r.P999.Micros()),
		})
	}
	return d.CSV("table4.csv",
		[]string{"scheduler", "p90_us", "p95_us", "p99_us", "p999_us"}, csvRows)
}

// Table6 writes the overhead rows for one scenario.
func (d *Dir) Table6(name string, rows []experiments.Table6Row) error {
	var csvRows [][]string
	for _, r := range rows {
		csvRows = append(csvRows, []string{
			r.Framework,
			strconv.Itoa(r.RTAsAdmitted),
			strconv.Itoa(r.VMs),
			strconv.Itoa(r.VCPUs),
			fmt.Sprintf("%.3f", r.ScheduleTime.Millis()),
			fmt.Sprintf("%.3f", r.CtxSwitchTime.Millis()),
			fmt.Sprintf("%.4f", r.OverheadPct),
			fmt.Sprintf("%.6f", r.Misses.Ratio()),
			strconv.FormatUint(r.Events.Hypercalls(), 10),
			strconv.FormatUint(r.Events[trace.Migrate], 10),
		})
	}
	return d.CSV(name, []string{
		"framework", "rtas", "vms", "vcpus", "schedule_ms", "ctxswitch_ms",
		"overhead_pct", "miss_ratio", "hypercalls", "migrations",
	}, csvRows)
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// Robustness writes the cross-seed claim summary.
func (d *Dir) Robustness(rows []experiments.RobustnessResult) error {
	var csvRows [][]string
	for _, r := range rows {
		csvRows = append(csvRows, []string{
			r.Claim,
			strconv.Itoa(r.Held),
			strconv.Itoa(r.Runs),
			r.Unit,
			fmt.Sprintf("%.4f", r.Min()),
			fmt.Sprintf("%.4f", r.Median()),
			fmt.Sprintf("%.4f", r.Max()),
		})
	}
	return d.CSV("robustness.csv",
		[]string{"claim", "held", "runs", "unit", "min", "median", "max"}, csvRows)
}
