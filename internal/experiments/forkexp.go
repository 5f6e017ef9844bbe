package experiments

import (
	"fmt"
	"strings"

	"rtvirt/internal/clone"
	"rtvirt/internal/core"
	"rtvirt/internal/metrics"
	"rtvirt/internal/runner"
	"rtvirt/internal/simtime"
	"rtvirt/internal/workload"
)

// This file exploits core.System.Fork for the experiment layer: a
// warm-start sweep that simulates a shared prefix once and forks it per
// arm (runner.MapForked).

// LoadStepConfig tunes the Figure-5 warm-start load sweep.
type LoadStepConfig struct {
	Seed uint64
	// Warmup is the shared prefix: the memcached VM runs alone until then.
	Warmup simtime.Duration
	// Duration is the total simulated time (warmup + contended tail).
	Duration simtime.Duration
	// Steps are the CPU-hog counts injected at Warmup, one arm each.
	Steps []int
	// Cold rebuilds every arm from scratch and replays the warmup prefix
	// instead of forking — the control MapForked is measured against.
	// Results are bit-identical either way; only the wall clock differs.
	Cold bool
}

// DefaultLoadStepConfig steps the Figure-5a contention from idle to the
// paper's 19 hogs, with a warmup long enough that forking pays.
func DefaultLoadStepConfig() LoadStepConfig {
	return LoadStepConfig{
		Seed:     1,
		Warmup:   40 * simtime.Second,
		Duration: 60 * simtime.Second,
		Steps:    []int{0, 6, 12, 19},
	}
}

// LoadStepRow is one (arm, hog count) point of the load sweep.
type LoadStepRow struct {
	Arm      Arm
	Hogs     int
	P999     simtime.Duration
	Mean     simtime.Duration
	Requests int
}

// Figure5LoadSteps sweeps memcached tail latency against an increasing
// number of CPU-bound VMs injected mid-run, under each of the four §4.4
// arms. Per arm the uncontended prefix is simulated once and every load
// step forks the warmed world (cfg.Cold replays it instead); the paper's
// Figure-5a point is the 19-hog step.
func Figure5LoadSteps(cfg LoadStepConfig) []LoadStepRow {
	var out []LoadStepRow
	for _, arm := range Arms() {
		out = append(out, loadStepArm(arm, cfg)...)
	}
	return out
}

func loadStepArm(arm Arm, cfg LoadStepConfig) []LoadStepRow {
	if cfg.Cold {
		return runner.Map(0, cfg.Steps, func(k int) LoadStepRow {
			sys := newMemcachedSystem(arm, 2, cfg.Seed)
			mc := addMemcachedVM(sys, arm, 0, 727)
			sys.Start()
			mc.Start(0)
			sys.Run(cfg.Warmup)
			return loadStepTail(sys, mc, arm, k, cfg)
		})
	}
	base := newMemcachedSystem(arm, 2, cfg.Seed)
	mc := addMemcachedVM(base, arm, 0, 727)
	base.Start()
	mc.Start(0)
	base.Run(cfg.Warmup)
	type world struct {
		sys *core.System
		mc  *workload.Memcached
	}
	return runner.MapForked(0, cfg.Steps,
		func(int, int) world {
			nsys, ctx := base.Fork()
			return world{sys: nsys, mc: clone.Get(ctx, mc)}
		},
		func(_ int, k int, w world) LoadStepRow {
			return loadStepTail(w.sys, w.mc, arm, k, cfg)
		})
}

// loadStepTail injects k CPU-bound VMs at the current time and runs out the
// remainder of the experiment. The same call runs on a forked world and on
// a cold rebuild that replayed the prefix; both take the identical path
// from here, which is what makes the two sweeps bit-comparable.
func loadStepTail(sys *core.System, mc *workload.Memcached, arm Arm, hogs int, cfg LoadStepConfig) LoadStepRow {
	now := sys.Now()
	for i := 0; i < hogs; i++ {
		g := mustGuest(sys.NewWeightedGuest(fmt.Sprintf("bg%d", i), 1, 256))
		hg, err := workload.NewCPUHog(g, 2000+i, fmt.Sprintf("hog%d", i))
		must(err)
		hg.Start(now)
	}
	sys.Run(cfg.Duration - simtime.Duration(now))
	return LoadStepRow{
		Arm:      arm,
		Hogs:     hogs,
		P999:     mc.Latency.Percentile(99.9),
		Mean:     mc.Latency.Mean(),
		Requests: mc.Latency.Count(),
	}
}

// RenderLoadSteps formats the load sweep.
func RenderLoadSteps(rows []LoadStepRow, slo simtime.Duration) string {
	t := metrics.NewTable("Arm", "hogs", "p99.9", "mean", "requests")
	for _, r := range rows {
		t.AddRow(string(r.Arm), fmt.Sprintf("%d", r.Hogs), r.P999.String(),
			r.Mean.String(), r.Requests)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 load steps — memcached tail vs hogs injected at warmup (SLO %v)\n", slo)
	b.WriteString(t.String())
	return b.String()
}
