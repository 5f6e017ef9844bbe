package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"text/tabwriter"
)

// report is the JSON report -out writes and -compare reads.
type report struct {
	Manifest  manifest         `json:"manifest"`
	Workloads []workloadReport `json:"workloads"`
}

// manifest records what produced a report.
type manifest struct {
	Commit     string   `json:"commit"`
	Dirty      bool     `json:"dirty"`
	GoVersion  string   `json:"go_version"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Command    []string `json:"command"`
	Seed       uint64   `json:"seed"`
}

func newManifest(seed uint64) manifest {
	m := manifest{Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: childProcs, Command: os.Args, Seed: seed}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				m.Dirty = s.Value == "true"
			}
		}
	}
	if m.Commit != "unknown" {
		return m
	}
	// Built without VCS stamping (go run, or a checkout without .git).
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			m.Dirty = len(st) > 0
		}
	}
	return m
}

func writeReport(path string, r report) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// boundedMetric is one end_to_end entry of BENCHMARK.json.
type boundedMetric struct {
	metricDef
	Bound float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads: its
// workloads and metrics, and the bounds -compare applies.
type benchmarkFile struct {
	Workloads []workloadEntry `json:"workloads"`
	EndToEnd  []boundedMetric `json:"end_to_end"`
	PerLayer  []metricDef     `json:"per_layer"`
}

type workloadEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// setupFloorS is the absolute slack -compare gives setup_s: the cluster
// worlds set up in about a millisecond, where a share of the base alone
// would flag scheduler noise.
const setupFloorS = 0.005

// compareReports prints one row per (end-to-end metric, workload) and
// returns the number of regressions: a metric worse than base by more than
// its bound, a workload missing from cur, or a failed run in cur.
func compareReports(bench benchmarkFile, base, cur report, out io.Writer) int {
	curByName := map[string]workloadReport{}
	for _, w := range cur.Workloads {
		curByName[w.Name] = w
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tchange\tbound\tverdict")
	bad := 0
	for _, b := range base.Workloads {
		c, ok := curByName[b.Name]
		if !ok {
			fmt.Fprintf(tw, "%s\t-\t\t\t\t\tREGRESSION (missing)\n", b.Name)
			bad++
			continue
		}
		if c.Failed > 0 {
			fmt.Fprintf(tw, "%s\tfailed runs\t%d/%d\t%d/%d\t\t0\tREGRESSION\n",
				b.Name, b.Failed, b.Attempts, c.Failed, c.Attempts)
			bad++
		}
		for _, m := range bench.EndToEnd {
			bv, bok := b.EndToEnd[m.Name]
			cv, cok := c.EndToEnd[m.Name]
			if !bok || !cok {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\tREGRESSION (no value)\n", b.Name, m.Name)
				bad++
				continue
			}
			// worse is how much worse cur is, as a share of base.
			worse := ratio(cv.Value-bv.Value, bv.Value)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			slack := m.Bound * bv.Value
			if m.Name == "setup_s" {
				slack = max(slack, setupFloorS)
			}
			switch {
			case worse*bv.Value > slack:
				verdict = "REGRESSION"
				bad++
			case worse < -m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.0f%%\t%s\n",
				b.Name, m.Name, bv.Value, cv.Value, 100*ratio(cv.Value-bv.Value, bv.Value), 100*m.Bound, verdict)
		}
	}
	tw.Flush()
	return bad
}

// runCompare implements -compare base.json new.json, reading the bounds
// from BENCHMARK.json in the working directory.
func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare needs two reports: base.json new.json")
	}
	var bench benchmarkFile
	var base, cur report
	for path, v := range map[string]any{"BENCHMARK.json": &bench, args[0]: &base, args[1]: &cur} {
		if err := readJSON(path, v); err != nil {
			return err
		}
	}
	if n := compareReports(bench, base, cur, os.Stdout); n > 0 {
		return fmt.Errorf("%d regressions", n)
	}
	return nil
}

// printSummary writes the human-readable table of a suite run.
func printSummary(out io.Writer, reps []workloadReport) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "workload\tfailed")
	for _, m := range endToEnd {
		fmt.Fprintf(tw, "\t%s (%s)", m.Name, m.Unit)
	}
	fmt.Fprintln(tw, "\ttop layers (% of run-phase CPU)")
	for _, r := range reps {
		fmt.Fprintf(tw, "%s\t%d/%d", r.Name, r.Failed, r.Attempts)
		for _, m := range endToEnd {
			fmt.Fprintf(tw, "\t%.4g", r.EndToEnd[m.Name].Value)
		}
		fmt.Fprintf(tw, "\t%s\n", topLayers(r.PerLayer, 4))
	}
	tw.Flush()
}

// topLayers lists the n layers with the largest self time.
func topLayers(perLayer map[string]metricValue, n int) string {
	ls := append([]string(nil), layers...)
	sort.SliceStable(ls, func(i, j int) bool {
		return perLayer[ls[i]+".self_pct"].Value > perLayer[ls[j]+".self_pct"].Value
	})
	var parts []string
	for _, l := range ls[:n] {
		if v, ok := perLayer[l+".self_pct"]; ok {
			parts = append(parts, fmt.Sprintf("%s %.0f", l, v.Value))
		}
	}
	return strings.Join(parts, ", ")
}
