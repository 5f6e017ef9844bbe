// Command rtvirt-perf is the simulator's outside-in benchmark. It builds four
// frozen workloads from the program's constructors, runs each in a fresh
// child process, checks every run's simulated outcome against a digest, and
// reports end-to-end metrics from untraced runs and a per-layer CPU
// breakdown from separately profiled runs. README.md describes the
// workloads, the metrics and their bounds.
//
// Usage, from the repository root:
//
//	bash cmd/rtvirt-perf/run.sh -seed 1 -out perf.json     # the suite: 3 untraced + 2 traced runs per workload
//	bash cmd/rtvirt-perf/run.sh -workload fig5a -seed 7 -seconds 30 -trace 0
//	bash cmd/rtvirt-perf/run.sh -compare base.json perf.json
//
// With -seconds the benchmark measures one workload for about that many
// host seconds and prints one JSON line: correct, attempted, failed and the
// end-to-end (-trace 0) or per-layer (-trace 1) metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rtvirt-perf: ")
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var (
		name    = flag.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all")
		seed    = flag.Uint64("seed", 1, "seed the workloads' inputs are made from")
		seconds = flag.Int("seconds", 0, "measure one workload for about this many host seconds and print one JSON result line (0 = the fixed suite)")
		traced  = flag.Int("trace", 0, "with -seconds: 0 reports end-to-end metrics; 1 adds profiled runs and reports per-layer metrics")
		out     = flag.String("out", "", "write the JSON report to this file")
		compare = flag.Bool("compare", false, "compare two reports, -compare base.json new.json, against the bounds in BENCHMARK.json; exit 1 on a regression")
		cpuprof = flag.String("cpuprofile", "", "write each workload's profiled run-phase CPU profile here, the workload's name inserted before the extension")
		memprof = flag.String("memprofile", "", "write each workload's allocation profile after a profiled run here, named like -cpuprofile")
		child   = flag.Bool("child", false, "run the workload once in this process and print the run's result as JSON (how the parent process runs each run)")
	)
	flag.Parse()
	// The benchmark measures the program's default event queue only.
	if os.Getenv("RTVIRT_EVENTQ") != "" {
		log.Fatal("RTVIRT_EVENTQ is set; unset it to measure the program's defaults")
	}
	if *compare {
		if err := runCompare(flag.Args()); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *traced != 0 && *traced != 1 {
		log.Fatalf("-trace must be 0 or 1, not %d", *traced)
	}
	var ws []benchWorkload
	if *name == "all" {
		ws = workloads
	} else if w, ok := findWorkload(*name); ok {
		ws = []benchWorkload{w}
	} else {
		log.Fatalf("unknown workload %q; choose one of %s or all", *name, strings.Join(names, ", "))
	}

	switch {
	case *child:
		if len(ws) != 1 {
			log.Fatal("-child runs exactly one workload")
		}
		r, err := runOnce(ws[0], *seed, *traced == 1, profiles{*cpuprof, *memprof})
		if err != nil {
			log.Fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
			log.Fatal(err)
		}
	case *seconds > 0:
		if len(ws) != 1 {
			log.Fatal("-seconds measures exactly one workload; name it with -workload")
		}
		os.Exit(timed(ws[0], *seed, time.Duration(*seconds)*time.Second, *traced == 1,
			profilesFor(ws[0], *cpuprof, *memprof), *out))
	default:
		os.Exit(suite(ws, *seed, *cpuprof, *memprof, *out))
	}
}

// profilesFor inserts the workload's name into the profile paths.
func profilesFor(w benchWorkload, cpu, mem string) profiles {
	named := func(path string) string {
		if path == "" {
			return ""
		}
		ext := filepath.Ext(path)
		return strings.TrimSuffix(path, ext) + "-" + w.name + ext
	}
	return profiles{named(cpu), named(mem)}
}

// The suite's run counts, and the minimum a timed run makes of each kind
// it measures, so every metric is a median and every seed is checked for
// agreement between runs.
const (
	suiteUntraced = 3
	suiteTraced   = 2
	minRuns       = 3
)

// suite runs every workload rep-major — each rep runs all workloads before
// the next starts, so drift over time spreads across workloads — first
// untraced, then traced. It prints a summary and returns the exit code.
func suite(ws []benchWorkload, seed uint64, cpuprof, memprof, out string) int {
	runs := make([][]runResult, len(ws))
	sp := newGaugedSpawner()
	for rep := 0; rep < suiteUntraced+suiteTraced; rep++ {
		traced := rep >= suiteUntraced
		for i, w := range ws {
			r := sp.spawn(w, seed, traced, profilesFor(w, cpuprof, memprof))
			fmt.Fprintf(os.Stderr, "%-13s rep %d traced=%-5v wall %.3fs speed %.3f %s\n", w.name, rep, traced, r.WallS, r.Speed, r.Err)
			runs[i] = append(runs[i], r)
		}
	}
	// Workloads of one world must agree with each other, as well as with the
	// seed-1 golden.
	refs := map[string]string{}
	var reps []workloadReport
	failed := 0
	for i, w := range ws {
		ref := goldenDigest(w, seed)
		if ref == "" {
			ref = refs[w.world]
		}
		rep := summarize(w, runs[i], ref)
		if refs[w.world] == "" {
			refs[w.world] = rep.Digest
		}
		failed += rep.Failed
		reps = append(reps, rep)
	}
	printSummary(os.Stdout, reps)
	return finish(reps, seed, out, failed)
}

// timed measures one workload until about budget has passed: untraced
// runs, alternating with traced ones when traced is set. It prints the
// one-line JSON result and returns the exit code.
func timed(w benchWorkload, seed uint64, budget time.Duration, traced bool, prof profiles, out string) int {
	start := time.Now()
	sp := newGaugedSpawner()
	var runs []runResult
	var longest time.Duration
	counts := [2]int{} // attempts: untraced, traced
	for i := 0; ; i++ {
		kind := 0
		if traced && i%2 == 1 {
			kind = 1
		}
		t := time.Now()
		r := sp.spawn(w, seed, kind == 1, prof)
		fmt.Fprintf(os.Stderr, "%s run %d traced=%-5v wall %.3fs speed %.3f %s\n", w.name, i, kind == 1, r.WallS, r.Speed, r.Err)
		runs = append(runs, r)
		counts[kind]++
		longest = max(longest, time.Since(t))
		enough := counts[0] >= minRuns && (!traced || counts[1] >= minRuns)
		if enough && time.Since(start)+longest > budget {
			break
		}
	}
	rep := summarize(w, runs, goldenDigest(w, seed))
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.Failed == 0, rep.Attempts, rep.Failed, rep.EndToEnd}
	if traced {
		line.Metrics = rep.PerLayer
	}
	if line.Metrics == nil {
		line.Metrics = map[string]metricValue{}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(buf))
	return finish([]workloadReport{rep}, seed, out, rep.Failed)
}

// finish writes the report when asked and turns failures into exit code 1.
func finish(reps []workloadReport, seed uint64, out string, failed int) int {
	if out != "" {
		if err := writeReport(out, report{newManifest(seed), reps}); err != nil {
			log.Print(err)
			return 1
		}
	}
	if failed > 0 {
		log.Printf("%d runs failed", failed)
		return 1
	}
	return 0
}
