package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rtvirt/internal/simtime"
)

// benchWorkload is one frozen input set of the benchmark.
type benchWorkload struct {
	name string
	// world names the seed-1 golden digest; both cluster workloads run the
	// same world and share it.
	world string
	build func(seed uint64) []func() world
}

// workloads are the benchmark's inputs, in run order. Each stresses a
// different part of the simulator; BENCHMARK.json and README.md give the
// reasons.
var workloads = []benchWorkload{
	{"fig3-table6", "fig3-table6",
		func(seed uint64) []func() world {
			return append(figure3Worlds(seed, simtime.Seconds(100)), table6Worlds(seed, simtime.Seconds(30))...)
		}},
	{"fig5a", "fig5a",
		func(seed uint64) []func() world { return figure5aWorlds(seed, simtime.Seconds(600)) }},
	{"cluster64-g1", "cluster64",
		func(seed uint64) []func() world {
			return []func() world{func() world { return newClusterWorld(seed, 64, simtime.Seconds(2), 1) }}
		}},
	{"cluster64-g2", "cluster64",
		func(seed uint64) []func() world {
			return []func() world{func() world { return newClusterWorld(seed, 64, simtime.Seconds(2), 2) }}
		}},
}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// runResult is what one run of one workload reports. A child process
// prints it as JSON; the parent adds Err when the run failed.
type runResult struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	Digest   string `json:"digest"`
	// Host-clock phases: SetupS is the median time to build every world and
	// call Start; RunS advances the last build's worlds to their horizons;
	// WallS runs from that build's first constructor call to the digest.
	SetupS float64 `json:"setup_s"`
	RunS   float64 `json:"run_s"`
	WallS  float64 `json:"wall_s"`
	// Speed is the host's speed around the run, gaugeRefS over the gauge's
	// time; the parent sets it. Host seconds times Speed are reference
	// seconds.
	Speed float64 `json:"speed"`
	// CPUS is the process CPU time of the run phase, from rusage.
	CPUS       float64 `json:"cpu_s"`
	SimS       float64 `json:"sim_s"`
	AllocMiB   float64 `json:"alloc_mib"`
	PeakRSSMiB float64 `json:"peak_rss_mib"`
	Meters     meters  `json:"meters"`
	// LayerNS is the run phase's sampled CPU per layer (traced runs only).
	LayerNS map[string]int64 `json:"layer_ns,omitempty"`
	Err     string           `json:"error,omitempty"`
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("rtvirt-perf: getrusage: %v", err))
	}
	return ru
}

func cpuSeconds(ru syscall.Rusage) float64 {
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime)).Seconds()
}

// peakRSSMiB reads this process's resident-set high-water mark, VmHWM. It
// is not getrusage's maxrss, which Linux carries across exec, so that a
// child's maxrss starts at its parent's resident set.
func peakRSSMiB() (float64, error) {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kib / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// profiles names the standard pprof files a traced run writes ("" = none).
type profiles struct{ cpu, mem string }

// A run builds its worlds at least minSetups times and for at least
// minSetupTime in all, and reports the median build time as setup_s, so
// page faults and GC cycles in a set-up of a fraction of a millisecond do
// not move it; the last build's worlds run.
const (
	minSetups    = 5
	minSetupTime = 100 * time.Millisecond
)

// runOnce builds, runs and digests one run of w in this process. A traced
// run profiles the run phase at the default 100 Hz and attributes the
// samples to layers.
func runOnce(w benchWorkload, seed uint64, traced bool, prof profiles) (runResult, error) {
	r := runResult{Workload: w.name, Traced: traced}
	build := func() []world {
		var worlds []world
		for _, b := range w.build(seed) {
			worlds = append(worlds, b())
		}
		return worlds
	}
	// Every build starts on a heap cleared of the earlier ones, so the
	// collection work inside a build is that build's own.
	var setups []float64
	for spent := time.Duration(0); len(setups) < minSetups-1 || spent < minSetupTime; {
		runtime.GC()
		t := time.Now()
		build()
		d := time.Since(t)
		spent += d
		setups = append(setups, d.Seconds())
	}
	// alloc_mib and wall_s count the last build, its run and the digest.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	start := time.Now()
	worlds := build()
	setups = append(setups, time.Since(start).Seconds())
	setupEnd := time.Now()
	cpu0 := cpuSeconds(rusage())
	var cpuProf bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&cpuProf); err != nil {
			return r, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	for _, x := range worlds {
		x.run()
	}
	if traced {
		pprof.StopCPUProfile()
	}
	r.CPUS = cpuSeconds(rusage()) - cpu0
	runEnd := time.Now()

	var text strings.Builder
	for _, x := range worlds {
		if now := x.clock(); now != simtime.Time(0).Add(x.horizon()) {
			return r, fmt.Errorf("a world stopped at %v, short of its horizon %v", now, x.horizon())
		}
		x.digest(&text)
		x.addMeters(&r.Meters)
		r.SimS += x.horizon().Seconds()
	}
	sum := sha256.Sum256([]byte(text.String()))
	r.Digest = hex.EncodeToString(sum[:])
	r.WallS = time.Since(start).Seconds()
	r.SetupS = medianOf(setups)
	r.RunS = runEnd.Sub(setupEnd).Seconds()

	allocBase := ms.TotalAlloc
	runtime.ReadMemStats(&ms)
	var err error
	r.AllocMiB = float64(ms.TotalAlloc-allocBase) / (1 << 20)
	if r.PeakRSSMiB, err = peakRSSMiB(); err != nil {
		return r, err
	}

	if !traced {
		return r, nil
	}
	if r.LayerNS, err = layerTimes(cpuProf.Bytes()); err != nil {
		return r, err
	}
	if prof.cpu != "" {
		if err := os.WriteFile(prof.cpu, cpuProf.Bytes(), 0o644); err != nil {
			return r, err
		}
	}
	if prof.mem != "" {
		if err := writeAllocsProfile(prof.mem); err != nil {
			return r, err
		}
	}
	return r, nil
}

func writeAllocsProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// childTimeout bounds one run; a run that overruns it is killed and fails.
const childTimeout = 120 * time.Second

// childProcs is every child's GOMAXPROCS. With one P the simulation, the
// garbage collector and cluster64-g2's second executor group share one
// thread, so a run's time is its CPU cost. With two, on a shared 2-vCPU
// host, the collector's idle workers and the barrier handoffs between two
// threads made run times depend on how the host scheduled the second
// thread: cluster64-g2's runs spread three times wider than at one.
const childProcs = 1

// spawn runs one run of w in a fresh child process, so every run starts
// from an empty heap and reports its own peak RSS. A panic, a non-zero
// exit or a timeout comes back as Err.
func spawn(w benchWorkload, seed uint64, traced bool, prof profiles) runResult {
	exe, err := os.Executable()
	if err != nil {
		return runResult{Workload: w.name, Traced: traced, Err: err.Error()}
	}
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10)}
	if traced {
		args = append(args, "-trace", "1")
		if prof.cpu != "" {
			args = append(args, "-cpuprofile", prof.cpu)
		}
		if prof.mem != "" {
			args = append(args, "-memprofile", prof.mem)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	err = cmd.Run()
	if ctx.Err() != nil {
		err = fmt.Errorf("timed out after %v", childTimeout)
	}
	var r runResult
	if err == nil {
		err = json.Unmarshal(out.Bytes(), &r)
	}
	if err != nil {
		return runResult{Workload: w.name, Traced: traced, Err: err.Error()}
	}
	return r
}

// verify marks runs whose digest disagrees with the reference: the seed-1
// golden when there is one, else the first passed run, so every run of a
// seed must agree.
func verify(runs []runResult, golden string) {
	ref := golden
	for i := range runs {
		r := &runs[i]
		if r.Err != "" {
			continue
		}
		if ref == "" {
			ref = r.Digest
		}
		if r.Digest != ref {
			r.Err = fmt.Sprintf("digest %.16s… does not match %.16s…", r.Digest, ref)
		}
	}
}

// split separates passed runs into untraced and traced ones.
func split(runs []runResult) (untraced, traced []runResult) {
	for _, r := range runs {
		switch {
		case r.Err != "":
		case r.Traced:
			traced = append(traced, r)
		default:
			untraced = append(untraced, r)
		}
	}
	return untraced, traced
}

// workloadReport is one workload's result in the JSON report.
type workloadReport struct {
	Name     string                 `json:"name"`
	Attempts int                    `json:"attempted"`
	Failed   int                    `json:"failed"`
	Digest   string                 `json:"digest,omitempty"`
	EndToEnd map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
	Runs     []runResult            `json:"runs"`
}

// summarize verifies a workload's runs and computes its metrics. Metrics
// need at least one passed run of their kind.
func summarize(w benchWorkload, runs []runResult, golden string) workloadReport {
	verify(runs, golden)
	rep := workloadReport{Name: w.name, Attempts: len(runs), Runs: runs}
	for _, r := range runs {
		if r.Err != "" {
			rep.Failed++
		} else if rep.Digest == "" {
			rep.Digest = r.Digest
		}
	}
	untraced, traced := split(runs)
	if len(untraced) > 0 {
		rep.EndToEnd = endToEndValues(untraced)
		if len(traced) > 0 {
			rep.PerLayer = perLayerValues(traced, untraced)
		}
	}
	return rep
}
