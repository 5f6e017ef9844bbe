// Command rtvirt-bench regenerates the tables and figures of the RTVirt
// paper's evaluation (§4). Each experiment prints the same rows/series the
// paper reports; EXPERIMENTS.md records paper-versus-measured.
//
// Usage:
//
//	rtvirt-bench -experiment all            # everything (several minutes)
//	rtvirt-bench -experiment fig3           # one experiment
//	rtvirt-bench -experiment fig5a -seconds 30
//	rtvirt-bench -experiment fidelity -out results
//
// rtvirt-bench -h lists the experiments and flags. With -out DIR,
// experiments that export machine-readable artifacts (CSV/JSON) write them
// into DIR; without it nothing is written.
//
// -experiment quickcheck runs the randomized invariant harness
// (internal/check/quick): -n scenarios per stack, seeded by -seed; any
// violation is shrunk to a minimal reproducer, exported with -out, and
// fails the process.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strings"

	"rtvirt"
	"rtvirt/internal/check/quick"
	"rtvirt/internal/report"
	"rtvirt/internal/runner"
)

// out is the optional artifact directory (-out flag); nil disables export.
var out *report.Dir

// options holds the command line.
type options struct {
	experiment string
	seed       uint64
	seconds    int64
	out        string
	runs       int
	n          int
	parallel   int
}

func defaultOptions() options {
	return options{experiment: "all", seed: 1, runs: 5, n: 25}
}

// experiment is one entry of the -experiment table.
type experiment struct {
	name string
	run  func(o options)
}

// experiments is the -experiment table in the order -experiment all runs
// it.
var experiments = []experiment{
	{"fig1", func(o options) { runFig1(o.seed, o.seconds) }},
	{"table1", func(options) { runTable1() }},
	{"table2", func(o options) { runTable2(o.seed, o.seconds) }},
	{"fig3", func(o options) { runFig3(o.seed, o.seconds, false) }},
	{"sporadic", func(o options) { runFig3(o.seed, o.seconds, true) }},
	{"table3", func(options) { runTable3() }},
	{"fig4", func(o options) { runFig4(o.seed, o.seconds) }},
	{"table4", func(o options) { runTable4(o.seed, o.seconds) }},
	{"fig5a", func(o options) { runFig5(o.seed, o.seconds, false) }},
	{"fig5b", func(o options) { runFig5(o.seed, o.seconds, true) }},
	{"table5", func(options) { runTable5() }},
	{"table6", func(o options) { runTable6(o.seed, o.seconds) }},
	{"ablations", func(o options) { runAblations(o.seed, o.seconds) }},
	{"io", func(o options) { runIO(o.seed, o.seconds) }},
	{"surge", func(o options) { runSurge(o.seed, o.seconds) }},
	{"loadsteps", func(o options) { runLoadSteps(o.seed, o.seconds) }},
	{"bisect", func(o options) { runBisect(o.seed, o.seconds) }},
	{"robustness", func(o options) { runRobustness(o.runs, o.seconds) }},
	{"fidelity", func(o options) { runFidelity(o.seed, o.seconds) }},
	{"attacks", func(o options) { runAttacks(o.seed, o.seconds) }},
	{"quickcheck", func(o options) { runQuickcheck(o.seed, o.n, o.seconds) }},
}

func experimentNames() string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return strings.Join(names, ", ")
}

// validate rejects flag values that the experiments would otherwise clamp
// or replace silently, and returns the experiments -experiment selects.
func (o options) validate() ([]experiment, error) {
	switch {
	case o.seconds < 0:
		return nil, fmt.Errorf("-seconds must be 0 (each experiment's default) or positive, got %d", o.seconds)
	case o.seconds > math.MaxInt64/int64(rtvirt.Second):
		return nil, fmt.Errorf("-seconds %d overflows the simulated clock", o.seconds)
	case o.runs < 1:
		return nil, fmt.Errorf("-runs must be at least 1, got %d", o.runs)
	case o.n < 1:
		return nil, fmt.Errorf("-n must be at least 1, got %d", o.n)
	case o.parallel < 0:
		return nil, fmt.Errorf("-parallel must be 0 (GOMAXPROCS) or positive, got %d", o.parallel)
	}
	name := strings.ToLower(o.experiment)
	if name == "all" {
		return experiments, nil
	}
	for _, e := range experiments {
		if e.name == name {
			return []experiment{e}, nil
		}
	}
	return nil, fmt.Errorf("-experiment: unknown experiment %q; choose one of %s, or all",
		o.experiment, experimentNames())
}

func main() {
	o := defaultOptions()
	flag.StringVar(&o.experiment, "experiment", o.experiment, "which experiment to run: "+experimentNames()+", or all")
	flag.Uint64Var(&o.seed, "seed", o.seed, "simulation seed")
	flag.Int64Var(&o.seconds, "seconds", o.seconds, "override run length in simulated seconds (0 = per-experiment default)")
	flag.StringVar(&o.out, "out", o.out, "write machine-readable artifacts (CSV/JSON) to this directory")
	flag.IntVar(&o.runs, "runs", o.runs, "seeds for -experiment robustness")
	flag.IntVar(&o.n, "n", o.n, "generated scenarios for -experiment quickcheck")
	flag.IntVar(&o.parallel, "parallel", o.parallel, "workers for independent simulations (0 = GOMAXPROCS, 1 = sequential); results are identical at any setting")
	flag.Parse()
	selected, err := o.validate()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rtvirt-bench: %v\n", err)
		os.Exit(2)
	}
	runner.SetDefault(o.parallel)
	if o.out != "" {
		d, err := report.NewDir(o.out)
		if err != nil {
			log.Fatal(err)
		}
		out = d
		defer func() {
			if len(out.Written) > 0 {
				fmt.Printf("artifacts written to %s: %s\n", out.Path(), strings.Join(out.Written, ", "))
			}
		}()
	}

	if len(selected) == 1 { // a single experiment prints without a banner
		selected[0].run(o)
		return
	}
	for _, e := range selected {
		fmt.Printf("==== %s ====\n", e.name)
		e.run(o)
		fmt.Println()
	}
}

func secondsOr(s int64, def rtvirt.Duration) rtvirt.Duration {
	if s > 0 {
		return rtvirt.Duration(s) * rtvirt.Second
	}
	return def
}

func runFig1(seed uint64, secs int64) {
	fmt.Println(rtvirt.Figure1(seed, secondsOr(secs, 60*rtvirt.Second)).Render())
}

func runTable1() {
	fmt.Println("Table 1 — periodic RTA groups")
	for _, g := range rtvirt.Table1Groups() {
		fmt.Printf("  %-12s %-12s", g.Name, g.Category)
		for _, p := range g.RTAs {
			fmt.Printf(" %v", p)
		}
		fmt.Printf("  (Σ %.3f CPUs)\n", g.Bandwidth())
	}
}

func runTable2(seed uint64, secs int64) {
	cfg := rtvirt.DefaultFigure3Config()
	cfg.Seed = seed
	cfg.Duration = secondsOr(secs, cfg.Duration)
	fmt.Println(rtvirt.RenderTable2(rtvirt.Table2(cfg)))
}

func runFig3(seed uint64, secs int64, sporadic bool) {
	cfg := rtvirt.DefaultFigure3Config()
	cfg.Seed = seed
	cfg.Sporadic = sporadic
	cfg.Duration = secondsOr(secs, cfg.Duration)
	if sporadic {
		cfg.Duration = secondsOr(secs, 60*rtvirt.Second)
	}
	rows := rtvirt.Figure3(cfg)
	label := "Figure 3 (periodic)"
	if sporadic {
		label = "§4.2 sporadic RTAs"
	}
	if out != nil && !sporadic {
		if err := out.Figure3(rows); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println(label)
	fmt.Println(rtvirt.RenderFigure3(rows))
	var req, xen, virt float64
	for _, r := range rows {
		req += r.RTAReq
		xen += r.RTXenClaimed
		virt += r.RTVirtAllocated
	}
	fmt.Printf("Across groups: RTVirt claims %.1f%% less bandwidth than RT-Xen (paper: 39.4%%)\n",
		100*(1-virt/xen))
}

func runTable3() {
	fmt.Println("Table 3 — video streaming profiles")
	for _, p := range rtvirt.VideoProfiles() {
		fmt.Printf("  %2d fps: %5.1f%% CPU, %v\n", p.FPS, 100*p.Bandwidth, p.Params)
	}
}

func runFig4(seed uint64, secs int64) {
	cfg := rtvirt.DefaultFigure4Config()
	cfg.Seed = seed
	cfg.Duration = secondsOr(secs, cfg.Duration)
	r := rtvirt.Figure4(cfg)
	if out != nil {
		if err := out.Figure4(r); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println(r.Render())
}

func runTable4(seed uint64, secs int64) {
	rows := rtvirt.Table4(seed, secondsOr(secs, 120*rtvirt.Second))
	if out != nil {
		if err := out.Table4(rows); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println(rtvirt.RenderTable4(rows))
}

func runFig5(seed uint64, secs int64, b bool) {
	cfg := rtvirt.DefaultFigure5Config()
	cfg.Seed = seed
	cfg.Duration = secondsOr(secs, cfg.Duration)
	if b {
		rows := rtvirt.Figure5b(cfg)
		if out != nil {
			if err := out.Figure5("fig5b", rows); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Println(rtvirt.RenderFigure5("Figure 5b", rows, cfg.SLO))
		return
	}
	rows := rtvirt.Figure5a(cfg)
	if out != nil {
		if err := out.Figure5("fig5a", rows); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println(rtvirt.RenderFigure5("Figure 5a", rows, cfg.SLO))
}

func runTable5() {
	fmt.Println("Table 5 — scalability RTA groups")
	for _, g := range rtvirt.Table5Groups() {
		fmt.Printf("  %-9s %v\n", g.Name, g.RTAs[0])
	}
}

func runAblations(seed uint64, secs int64) {
	d := secondsOr(secs, 20*rtvirt.Second)
	fmt.Println(rtvirt.RenderAblation("Ablation — DP-WRAP minimum global slice (sub-ms workload)",
		"sched ms/s", rtvirt.AblationMinSlice(seed, d)))
	fmt.Println(rtvirt.RenderAblation("Ablation — per-VCPU budget slack (all Table-1 groups)",
		"alloc CPUs", rtvirt.AblationSlack(seed, d)))
	fmt.Println(rtvirt.RenderAblation("Ablation — server flavour (Figure-1 workload)",
		"RTA2 resp µs", rtvirt.AblationServerFlavour(seed, d)))
	fmt.Println(rtvirt.RenderAblation("Ablation — work-conserving leftover sharing (under-reserved memcached)",
		"mean µs", rtvirt.AblationWorkConserving(seed, d)))
	fmt.Println(rtvirt.RenderAblation("Ablation — §6 idle tax (over-claiming idle VM)",
		"newcomer admitted", rtvirt.AblationIdleTax(seed, d)))
	fmt.Println(rtvirt.RenderAblation("Ablation — guest scheduler: pEDF vs gEDF (§3.2)",
		"guest sw/s", rtvirt.AblationGuestScheduler(seed, d)))
	fmt.Println(rtvirt.RenderAblation("Ablation — forked counterfactual admission (idle-tax world)",
		"newcomer admitted", rtvirt.AblationNewcomerForked(seed, d)))
}

func runSurge(seed uint64, secs int64) {
	cfg := rtvirt.DefaultFigure4Config()
	cfg.Seed = seed
	cfg.Duration = secondsOr(secs, 120*rtvirt.Second)
	warm := cfg.Duration / 2
	rows := rtvirt.Figure4Surge(cfg, []int{0, 2, 4, 8}, warm, cfg.Duration-warm)
	fmt.Println(rtvirt.RenderFigure4Surge(rows))
}

func runLoadSteps(seed uint64, secs int64) {
	cfg := rtvirt.DefaultLoadStepConfig()
	cfg.Seed = seed
	if secs > 0 {
		cfg.Duration = rtvirt.Duration(secs) * rtvirt.Second
		cfg.Warmup = cfg.Duration * 2 / 3
	}
	rows := rtvirt.Figure5LoadSteps(cfg)
	fmt.Println(rtvirt.RenderLoadSteps(rows, rtvirt.DefaultFigure5Config().SLO))
}

// runBisect demonstrates the divergence bisector on the two server-based
// stacks: the same three reserved VMs under RT-Xen's deferrable servers
// versus plain two-level EDF's polling servers.
func runBisect(seed uint64, secs int64) {
	horizon := secondsOr(secs, 5*rtvirt.Second)
	build := func(stack rtvirt.Stack) func() *rtvirt.System {
		return func() *rtvirt.System {
			cfg := rtvirt.DefaultConfig(stack)
			cfg.PCPUs = 2
			cfg.Seed = seed
			sys := rtvirt.NewSystem(cfg)
			apps := make([]*rtvirt.RTApp, 0, 4)
			for i := 0; i < 4; i++ {
				g, err := sys.NewServerGuest(fmt.Sprintf("vm%d", i),
					[]rtvirt.Reservation{{Budget: 4 * rtvirt.Millisecond, Period: 10 * rtvirt.Millisecond}}, 256)
				if err != nil {
					log.Fatal(err)
				}
				// The task period drifts against the server period, so servers
				// regularly idle with leftover budget — the moment deferrable
				// (keep it) and polling (burn it) servers part ways.
				app, err := rtvirt.NewRTApp(g, i, fmt.Sprintf("rta%d", i),
					rtvirt.Params{Slice: 2 * rtvirt.Millisecond, Period: 7 * rtvirt.Millisecond})
				if err != nil {
					log.Fatal(err)
				}
				apps = append(apps, app)
			}
			sys.Start()
			for _, app := range apps {
				app.Start(0)
			}
			return sys
		}
	}
	res := rtvirt.Bisect(build(rtvirt.StackRTXen), build(rtvirt.StackTwoLevelEDF),
		horizon, 100*rtvirt.Microsecond)
	fmt.Println("Bisect — deferrable (rt-xen) vs polling (two-level-edf) servers, same workload")
	fmt.Println(res.Render())
}

func runIO(seed uint64, secs int64) {
	d := secondsOr(secs, 60*rtvirt.Second)
	rows := rtvirt.IOBound(seed, d)
	if out != nil {
		if err := out.IO(rows); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println(rtvirt.RenderIO(rows, rtvirt.DefaultIOAppConfig().SLO))
}

func runRobustness(runs int, secs int64) {
	d := secondsOr(secs, 60*rtvirt.Second)
	rows := rtvirt.Robustness(runs, d)
	if out != nil {
		if err := out.Robustness(rows); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println(rtvirt.RenderRobustness(rows))
}

func runTable6(seed uint64, secs int64) {
	cfg := rtvirt.DefaultTable6Config()
	cfg.Seed = seed
	cfg.Duration = secondsOr(secs, cfg.Duration)
	multi := rtvirt.Table6(rtvirt.MultiRTAVMs, cfg)
	single := rtvirt.Table6(rtvirt.SingleRTAVMs, cfg)
	if out != nil {
		if err := out.Table6("table6-multi.csv", multi); err != nil {
			log.Fatal(err)
		}
		if err := out.Table6("table6-single.csv", single); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println(rtvirt.RenderTable6(multi))
	fmt.Println(rtvirt.RenderTable6(single))
}

// runFidelity runs the constant-vs-calibrated cost-model ablation: the
// same Figure-3 and Table-6 scheduler comparisons under the paper's flat
// §4 constants and under the distribution-valued calibrated model, with a
// per-row verdict on whether the winner survives the cost noise. With
// -out the record is written as fidelity.json.
func runFidelity(seed uint64, secs int64) {
	cfg := rtvirt.DefaultFidelityConfig()
	cfg.Seed = seed
	cfg.Duration = secondsOr(secs, cfg.Duration)
	res := rtvirt.FidelityAblation(cfg)
	fmt.Println(rtvirt.RenderFidelity(res))
	if out != nil {
		if err := out.JSON("fidelity.json", &res); err != nil {
			log.Fatal(err)
		}
	}
}

// runAttacks runs the adversarial suite: the tick-evasion attacker's
// obtained/charged/stolen bandwidth under every scheduler stack — the
// exact-accounting schedulers against the deliberately-naive tick-sampled
// Credit double — plus the adaptive controller's convergence trace and
// rejection-backoff counters. With -out the full record is written as
// attacks.json.
func runAttacks(seed uint64, secs int64) {
	cfg := rtvirt.DefaultAttackConfig()
	cfg.Seed = seed
	cfg.Duration = secondsOr(secs, cfg.Duration)
	res := rtvirt.Attacks(cfg)
	fmt.Println(rtvirt.RenderAttacks(res))
	if out != nil {
		if err := out.JSON("attacks.json", &res); err != nil {
			log.Fatal(err)
		}
	}
}

// runQuickcheck drives the randomized invariant harness: n generated
// scenarios per scheduler stack, every oracle armed plus the mid-run fork
// bit-identity probe. Violations are shrunk to minimal reproducers; with
// -out they are exported both as full failure records and as bare
// scenarios that rtvirt-sim replays directly. Any failure exits nonzero
// so CI gates on it.
func runQuickcheck(seed uint64, n int, seconds int64) {
	rep := quick.Run(quick.Config{Seed: seed, N: n, Seconds: seconds})
	fmt.Println(rep.Render())
	if out != nil {
		for _, f := range rep.Failures {
			base := fmt.Sprintf("quickcheck-%d-%s", f.Case, f.Stack)
			if err := out.JSON(base+"-failure.json", f); err != nil {
				log.Fatal(err)
			}
			if err := out.JSON(base+"-repro.json", f.Scenario); err != nil {
				log.Fatal(err)
			}
		}
	}
	if len(rep.Failures) > 0 {
		os.Exit(1)
	}
}
