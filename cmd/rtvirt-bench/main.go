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
	"io"
	"log"
	"math"
	"os"
	"strings"

	"rtvirt/internal/check/quick"
	"rtvirt/internal/experiments"
	"rtvirt/internal/report"
	"rtvirt/internal/runner"
	"rtvirt/internal/simtime"
	"rtvirt/internal/workload"
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

// experiment is one entry of the -experiment table; run writes the
// experiment's report to w.
type experiment struct {
	name string
	run  func(w io.Writer, o options)
}

// experimentTable is the -experiment table in the order -experiment all
// runs it.
var experimentTable = []experiment{
	{"fig1", func(w io.Writer, o options) { runFig1(w, o.seed, o.seconds) }},
	{"table1", func(w io.Writer, _ options) { runTable1(w) }},
	{"table2", func(w io.Writer, o options) { runTable2(w, o.seed, o.seconds) }},
	{"fig3", func(w io.Writer, o options) { runFig3(w, o.seed, o.seconds, false) }},
	{"sporadic", func(w io.Writer, o options) { runFig3(w, o.seed, o.seconds, true) }},
	{"table3", func(w io.Writer, _ options) { runTable3(w) }},
	{"fig4", func(w io.Writer, o options) { runFig4(w, o.seed, o.seconds) }},
	{"table4", func(w io.Writer, o options) { runTable4(w, o.seed, o.seconds) }},
	{"fig5a", func(w io.Writer, o options) { runFig5(w, o.seed, o.seconds, false) }},
	{"fig5b", func(w io.Writer, o options) { runFig5(w, o.seed, o.seconds, true) }},
	{"table5", func(w io.Writer, _ options) { runTable5(w) }},
	{"table6", func(w io.Writer, o options) { runTable6(w, o.seed, o.seconds) }},
	{"ablations", func(w io.Writer, o options) { runAblations(w, o.seed, o.seconds) }},
	{"loadsteps", func(w io.Writer, o options) { runLoadSteps(w, o.seed, o.seconds) }},
	{"robustness", func(w io.Writer, o options) { runRobustness(w, o.runs, o.seconds) }},
	{"fidelity", func(w io.Writer, o options) { runFidelity(w, o.seed, o.seconds) }},
	{"attacks", func(w io.Writer, o options) { runAttacks(w, o.seed, o.seconds) }},
	{"quickcheck", func(w io.Writer, o options) { runQuickcheck(w, o.seed, o.n, o.seconds) }},
}

func experimentNames() string {
	names := make([]string, len(experimentTable))
	for i, e := range experimentTable {
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
	case o.seconds > math.MaxInt64/int64(simtime.Second):
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
		return experimentTable, nil
	}
	for _, e := range experimentTable {
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

	runSelected(os.Stdout, selected, o)
}

// runSelected writes the report of every selected experiment to w. A
// single experiment prints without a banner.
func runSelected(w io.Writer, selected []experiment, o options) {
	if len(selected) == 1 {
		selected[0].run(w, o)
		return
	}
	for _, e := range selected {
		fmt.Fprintf(w, "==== %s ====\n", e.name)
		e.run(w, o)
		fmt.Fprintln(w)
	}
}

func secondsOr(s int64, def simtime.Duration) simtime.Duration {
	if s > 0 {
		return simtime.Duration(s) * simtime.Second
	}
	return def
}

func runFig1(w io.Writer, seed uint64, secs int64) {
	fmt.Fprintln(w, experiments.Figure1(seed, secondsOr(secs, 60*simtime.Second)).Render())
}

func runTable1(w io.Writer) {
	fmt.Fprintln(w, "Table 1 — periodic RTA groups")
	for _, g := range experiments.Table1Groups() {
		fmt.Fprintf(w, "  %-12s %-12s", g.Name, g.Category)
		for _, p := range g.RTAs {
			fmt.Fprintf(w, " %v", p)
		}
		fmt.Fprintf(w, "  (Σ %.3f CPUs)\n", g.Bandwidth())
	}
}

func runTable2(w io.Writer, seed uint64, secs int64) {
	cfg := experiments.DefaultFigure3Config()
	cfg.Seed = seed
	cfg.Duration = secondsOr(secs, cfg.Duration)
	fmt.Fprintln(w, experiments.RenderTable2(experiments.Table2(cfg)))
}

func runFig3(w io.Writer, seed uint64, secs int64, sporadic bool) {
	cfg := experiments.DefaultFigure3Config()
	cfg.Seed = seed
	cfg.Sporadic = sporadic
	cfg.Duration = secondsOr(secs, cfg.Duration)
	if sporadic {
		cfg.Duration = secondsOr(secs, 60*simtime.Second)
	}
	rows := experiments.Figure3(cfg)
	label := "Figure 3 (periodic)"
	if sporadic {
		label = "§4.2 sporadic RTAs"
	}
	if out != nil && !sporadic {
		if err := out.Figure3(rows); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Fprintln(w, label)
	fmt.Fprintln(w, experiments.RenderFigure3(rows))
	var req, xen, virt float64
	for _, r := range rows {
		req += r.RTAReq
		xen += r.RTXenClaimed
		virt += r.RTVirtAllocated
	}
	fmt.Fprintf(w, "Across groups: RTVirt claims %.1f%% less bandwidth than RT-Xen (paper: 39.4%%)\n",
		100*(1-virt/xen))
}

func runTable3(w io.Writer) {
	fmt.Fprintln(w, "Table 3 — video streaming profiles")
	for _, p := range workload.VideoProfiles {
		fmt.Fprintf(w, "  %2d fps: %5.1f%% CPU, %v\n", p.FPS, 100*p.Bandwidth, p.Params)
	}
}

func runFig4(w io.Writer, seed uint64, secs int64) {
	cfg := experiments.DefaultFigure4Config()
	cfg.Seed = seed
	cfg.Duration = secondsOr(secs, cfg.Duration)
	r := experiments.Figure4(cfg)
	if out != nil {
		if err := out.Figure4(r); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Fprintln(w, r.Render())
}

func runTable4(w io.Writer, seed uint64, secs int64) {
	rows := experiments.Table4(seed, secondsOr(secs, 120*simtime.Second))
	if out != nil {
		if err := out.Table4(rows); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Fprintln(w, experiments.RenderTable4(rows))
}

func runFig5(w io.Writer, seed uint64, secs int64, b bool) {
	cfg := experiments.DefaultFigure5Config()
	cfg.Seed = seed
	cfg.Duration = secondsOr(secs, cfg.Duration)
	if b {
		rows := experiments.Figure5b(cfg)
		if out != nil {
			if err := out.Figure5("fig5b", rows); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Fprintln(w, experiments.RenderFigure5("Figure 5b", rows, cfg.SLO))
		return
	}
	rows := experiments.Figure5a(cfg)
	if out != nil {
		if err := out.Figure5("fig5a", rows); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Fprintln(w, experiments.RenderFigure5("Figure 5a", rows, cfg.SLO))
}

func runTable5(w io.Writer) {
	fmt.Fprintln(w, "Table 5 — scalability RTA groups")
	for _, g := range experiments.Table5Groups() {
		fmt.Fprintf(w, "  %-9s %v\n", g.Name, g.RTAs[0])
	}
}

func runAblations(w io.Writer, seed uint64, secs int64) {
	d := secondsOr(secs, 20*simtime.Second)
	fmt.Fprintln(w, experiments.RenderAblation("Ablation — DP-WRAP minimum global slice (sub-ms workload)",
		"sched ms/s", experiments.AblationMinSlice(seed, d)))
	fmt.Fprintln(w, experiments.RenderAblation("Ablation — per-VCPU budget slack (all Table-1 groups)",
		"alloc CPUs", experiments.AblationSlack(seed, d)))
	fmt.Fprintln(w, experiments.RenderAblation("Ablation — server flavour (Figure-1 workload)",
		"RTA2 resp µs", experiments.AblationServerFlavour(seed, d)))
	fmt.Fprintln(w, experiments.RenderAblation("Ablation — work-conserving leftover sharing (under-reserved memcached)",
		"mean µs", experiments.AblationWorkConserving(seed, d)))
	fmt.Fprintln(w, experiments.RenderAblation("Ablation — §6 idle tax (over-claiming idle VM)",
		"newcomer admitted", experiments.AblationIdleTax(seed, d)))
	fmt.Fprintln(w, experiments.RenderAblation("Ablation — guest scheduler: pEDF vs gEDF (§3.2)",
		"guest sw/s", experiments.AblationGuestScheduler(seed, d)))
}

func runLoadSteps(w io.Writer, seed uint64, secs int64) {
	cfg := experiments.DefaultLoadStepConfig()
	cfg.Seed = seed
	if secs > 0 {
		cfg.Duration = simtime.Duration(secs) * simtime.Second
		cfg.Warmup = cfg.Duration * 2 / 3
	}
	rows := experiments.Figure5LoadSteps(cfg)
	fmt.Fprintln(w, experiments.RenderLoadSteps(rows, experiments.DefaultFigure5Config().SLO))
}

func runRobustness(w io.Writer, runs int, secs int64) {
	d := secondsOr(secs, 60*simtime.Second)
	rows := experiments.Robustness(runs, d)
	if out != nil {
		if err := out.Robustness(rows); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Fprintln(w, experiments.RenderRobustness(rows))
}

func runTable6(w io.Writer, seed uint64, secs int64) {
	cfg := experiments.DefaultTable6Config()
	cfg.Seed = seed
	cfg.Duration = secondsOr(secs, cfg.Duration)
	multi := experiments.Table6(experiments.MultiRTAVMs, cfg)
	single := experiments.Table6(experiments.SingleRTAVMs, cfg)
	if out != nil {
		if err := out.Table6("table6-multi.csv", multi); err != nil {
			log.Fatal(err)
		}
		if err := out.Table6("table6-single.csv", single); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Fprintln(w, experiments.RenderTable6(multi))
	fmt.Fprintln(w, experiments.RenderTable6(single))
}

// runFidelity runs the constant-vs-calibrated cost-model ablation: the
// same Figure-3 and Table-6 scheduler comparisons under the paper's flat
// §4 constants and under the distribution-valued calibrated model, with a
// per-row verdict on whether the winner survives the cost noise. With
// -out the record is written as fidelity.json.
func runFidelity(w io.Writer, seed uint64, secs int64) {
	cfg := experiments.DefaultFidelityConfig()
	cfg.Seed = seed
	cfg.Duration = secondsOr(secs, cfg.Duration)
	res := experiments.FidelityAblation(cfg)
	fmt.Fprintln(w, experiments.RenderFidelity(res))
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
func runAttacks(w io.Writer, seed uint64, secs int64) {
	cfg := experiments.DefaultAttackConfig()
	cfg.Seed = seed
	cfg.Duration = secondsOr(secs, cfg.Duration)
	res := experiments.Attacks(cfg)
	fmt.Fprintln(w, experiments.RenderAttacks(res))
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
func runQuickcheck(w io.Writer, seed uint64, n int, seconds int64) {
	rep := quick.Run(quick.Config{Seed: seed, N: n, Seconds: seconds})
	fmt.Fprintln(w, rep.Render())
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
