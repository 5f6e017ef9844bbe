package experiments

import (
	"fmt"
	"strings"

	"rtvirt/internal/check"
	"rtvirt/internal/clone"
	"rtvirt/internal/core"
	"rtvirt/internal/metrics"
	"rtvirt/internal/runner"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
	"rtvirt/internal/trace"
	"rtvirt/internal/workload"
)

// This file exploits core.System.Fork for the experiment layer: warm-start
// sweeps that simulate a shared prefix once and fork it per arm
// (runner.MapForked), and a divergence bisector that binary-searches
// simulated time for the first dispatch where two systems part ways.

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

// AblationNewcomerForked replays §6's admission decision as a forked
// counterfactual: one world with an over-claiming idle VM is warmed up
// once, then forked per arm — one fork is left alone, the other admits a
// newcomer under the idle tax — so the two outcomes share their history
// bit-for-bit instead of replaying it per arm as AblationIdleTax does.
// Extra = newcomer admitted (1) or absent/rejected (0).
func AblationNewcomerForked(seed uint64, duration simtime.Duration) []AblationRow {
	cfg := core.DefaultConfig(core.RTVirt)
	cfg.PCPUs = 1
	cfg.Seed = seed
	cfg.Slack = 0
	cfg.DPWrap.IdleTax = true
	cfg.DPWrap.TaxWindow = simtime.Millis(50)
	base := core.NewSystem(cfg)
	gIdle := mustGuest(base.NewGuest("overclaimer", 1))
	idler := task.New(0, "idler", task.Periodic, pp(7, 10)) // claims 70%, uses ~0
	must(gIdle.Register(idler))
	base.Start()
	base.Run(duration / 2)

	return runner.MapForked(0, []bool{false, true},
		func(int, bool) *core.System {
			nsys, _ := base.Fork()
			return nsys
		},
		func(_ int, newcomer bool, sys *core.System) AblationRow {
			row := AblationRow{Label: "warm world, no newcomer"}
			if newcomer {
				row.Label = "forked world, newcomer admitted"
				gNew := mustGuest(sys.NewGuest("newcomer", 1))
				busy := task.New(1, "busy", task.Periodic, pp(6, 10))
				if err := gNew.Register(busy); err == nil {
					row.Extra = 1
					gNew.StartPeriodic(busy, sys.Now())
					sys.Run(duration / 2)
					row.MissPct = 100 * busy.Stats().MissRatio()
				} else {
					sys.Run(duration / 2)
				}
			} else {
				sys.Run(duration / 2)
			}
			row.OverheadPct = sys.Overhead().Percent
			return row
		})
}

// BisectResult reports where two systems' dispatch streams first part ways.
type BisectResult struct {
	// Diverged is false when the streams agree over the whole horizon.
	Diverged bool
	// At is the simulated time of the first divergent dispatch.
	At simtime.Time
	// A and B are the first differing dispatch events (zero Events when one
	// stream simply ran out).
	A, B trace.Event
	// Probes counts the forked probe runs the binary search needed.
	Probes int
}

// Render formats the verdict.
func (r BisectResult) Render() string {
	if !r.Diverged {
		return fmt.Sprintf("no divergence within the horizon (%d probes)", r.Probes)
	}
	return fmt.Sprintf("first divergent dispatch at %v (%d probes)\n  A: pcpu%d <- %s/vcpu%d\n  B: pcpu%d <- %s/vcpu%d",
		r.At, r.Probes, r.A.PCPU, vmOrIdle(r.A), r.A.VCPU, r.B.PCPU, vmOrIdle(r.B), r.B.VCPU)
}

func vmOrIdle(ev trace.Event) string {
	if ev.VM == "" {
		return "idle"
	}
	return ev.VM
}

// dispatchLog records the dispatch stream verbatim (final narrow window of
// the bisection).
type dispatchLog struct {
	events []trace.Event
}

// Consume implements trace.Sink.
func (l *dispatchLog) Consume(ev trace.Event) {
	if ev.Kind == trace.Dispatch {
		l.events = append(l.events, ev)
	}
}

// Bisect finds the first divergent dispatch between two systems — two
// scheduler stacks over the same workload, or one stack under two configs —
// by binary-searching simulated time. Both builders must be deterministic;
// the two worlds are advanced in lockstep from a pair of frontier forks, so
// no prefix is ever re-simulated: probing [lo, mid] forks the frontiers,
// runs the forks with digest sinks on their trace buses, and either adopts
// them as the new frontiers (streams still agree) or discards them. The
// final window, at most `resolution` wide, is replayed once with recording
// sinks to name the exact pair of events.
func Bisect(buildA, buildB func() *core.System, horizon, resolution simtime.Duration) BisectResult {
	if resolution <= 0 {
		resolution = simtime.Millisecond
	}
	fa, fb := buildA(), buildB()
	res := BisectResult{}

	// probe forks both frontiers and runs them `span` ahead, reporting the
	// dispatch digests and the forks themselves.
	probe := func(span simtime.Duration) (*core.System, *core.System, *check.DispatchDigest, *check.DispatchDigest) {
		na, _ := fa.Fork()
		nb, _ := fb.Fork()
		da, db := check.NewDispatchDigest(), check.NewDispatchDigest()
		na.Host.TraceTo(da)
		nb.Host.TraceTo(db)
		na.Run(span)
		nb.Run(span)
		res.Probes++
		return na, nb, da, db
	}

	lo, hi := simtime.Duration(0), horizon
	// First probe the whole horizon: no divergence means no bisection.
	if _, _, da, db := probe(horizon); da.Equal(db) {
		return res
	}
	res.Diverged = true

	for hi-lo > resolution {
		mid := lo + (hi-lo)/2
		na, nb, da, db := probe(mid - lo)
		if da.Equal(db) {
			// Streams still agree at mid: the probes become the frontiers.
			fa, fb, lo = na, nb, mid
		} else {
			hi = mid
		}
	}

	// Replay the final window with full recording to name the divergence.
	na, _ := fa.Fork()
	nb, _ := fb.Fork()
	la, lb := &dispatchLog{}, &dispatchLog{}
	na.Host.TraceTo(la)
	nb.Host.TraceTo(lb)
	na.Run(hi - lo)
	nb.Run(hi - lo)
	res.Probes++
	for i := 0; ; i++ {
		switch {
		case i >= len(la.events) && i >= len(lb.events):
			// Divergence past the recorded window can only mean digests
			// collided earlier; report the window end.
			res.At = simtime.Time(hi)
			return res
		case i >= len(la.events):
			res.B = lb.events[i]
			res.At = res.B.At
			return res
		case i >= len(lb.events):
			res.A = la.events[i]
			res.At = res.A.At
			return res
		case la.events[i] != lb.events[i]:
			res.A, res.B = la.events[i], lb.events[i]
			res.At = res.A.At
			if res.B.At < res.At {
				res.At = res.B.At
			}
			return res
		}
	}
}
