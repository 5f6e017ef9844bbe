// Command rtvirt-analyze performs offline admission analysis on a
// scenario file — the role CARTS plays in the paper's workflow. It reads
// the same JSON that cmd/rtvirt-sim runs and reports, without simulating:
//
//   - the minimal static RT-Xen interface (Θ, Π) for each VCPU, with
//     tasks packed first-fit-decreasing onto as few VCPUs as feasible;
//   - the reservation RTVirt's guest would size for the same VCPUs
//     (budget = ⌈ΣBW·minP⌉ + slack, §3.3);
//   - host-level admission: allocated bandwidth, claimed CPUs under both
//     the partitioned and gEDF analyses, and the bandwidth RTVirt saves.
//
// With -replay the arguments are instead JSONL telemetry streams written
// by `rtvirt-sim -trace`: each is re-ingested through the same sinks the
// simulator uses online (per-kind counters, exact p99s, schedule
// digest) for offline inspection.
//
// The exit status gates CI: 0 when every scenario's own stack admits its
// workload, 1 when any does not, and 2 on any error — a usage error (a
// missing argument or an out-of-range flag, rejected before any
// analysis) or an input that cannot be read, parsed or analysed — so 1
// always means REJECTED.
//
// Usage:
//
//	rtvirt-analyze scenario.json
//	rtvirt-analyze -quantum-us 100 -json scenario.json
//	rtvirt-analyze -period-us 5000 scenario.json     # fixed server period
//	rtvirt-analyze -o report.txt a.json b.json       # several scenarios, one report
//	rtvirt-analyze -replay events.jsonl              # ingest a rtvirt-sim -trace stream
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"rtvirt/internal/analyze"
	"rtvirt/internal/scenario"
	"rtvirt/internal/simtime"
	"rtvirt/internal/trace"
)

// options holds the analysis flags.
type options struct {
	quantumUS int64
	periodUS  int64
	slackUS   int64
	pcpus     int
}

func defaultOptions() options { return options{quantumUS: 1000, slackUS: 500} }

// maxUS is the largest µs flag value the simulated clock can hold.
const maxUS = math.MaxInt64 / int64(simtime.Microsecond)

// validate rejects flag values the analysis would otherwise replace with
// a default or misuse silently: a zero quantum or slack means "default"
// to analyze.Options, and a negative value would shrink reservations.
func (o options) validate() error {
	switch {
	case o.quantumUS < 1:
		return fmt.Errorf("-quantum-us must be positive, got %d", o.quantumUS)
	case o.quantumUS > maxUS:
		return fmt.Errorf("-quantum-us %d overflows the simulated clock", o.quantumUS)
	case o.periodUS < 0:
		return fmt.Errorf("-period-us must be 0 (sweep) or positive, got %d", o.periodUS)
	case o.periodUS > maxUS:
		return fmt.Errorf("-period-us %d overflows the simulated clock", o.periodUS)
	case o.slackUS < 1:
		return fmt.Errorf("-slack-us must be positive, got %d", o.slackUS)
	case o.slackUS > maxUS:
		return fmt.Errorf("-slack-us %d overflows the simulated clock", o.slackUS)
	case o.pcpus < 0:
		return fmt.Errorf("-pcpus must be 0 (the scenario's count) or positive, got %d", o.pcpus)
	}
	return nil
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// cli runs the command line args and returns the exit status.
func cli(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("rtvirt-analyze", flag.ContinueOnError)
	fl.SetOutput(stderr)
	o := defaultOptions()
	fl.Int64Var(&o.quantumUS, "quantum-us", o.quantumUS, "server budget quantum in µs (CARTS uses 1000)")
	fl.Int64Var(&o.periodUS, "period-us", o.periodUS, "fix every server period to this many µs (0 = sweep)")
	fl.Int64Var(&o.slackUS, "slack-us", o.slackUS, "RTVirt per-VCPU budget slack in µs")
	fl.IntVar(&o.pcpus, "pcpus", o.pcpus, "override the scenario's physical CPU count (0 = keep it)")
	var (
		jsonOut = fl.Bool("json", false, "emit the full analysis as JSON")
		outPath = fl.String("o", "", "write the report to this file instead of stdout")
		replay  = fl.Bool("replay", false, "treat arguments as JSONL telemetry streams from rtvirt-sim -trace")
	)
	if err := fl.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if err := o.validate(); err != nil {
		fmt.Fprintf(stderr, "rtvirt-analyze: %v\n", err)
		return 2
	}
	if fl.NArg() < 1 {
		fmt.Fprintln(stderr, "usage: rtvirt-analyze [flags] <scenario.json> [more scenarios...]")
		fmt.Fprintln(stderr, "       rtvirt-analyze -replay <events.jsonl> [more traces...]")
		fl.PrintDefaults()
		return 2
	}

	status, err := run(stdout, o, *outPath, *jsonOut, *replay, fl.Args())
	if err != nil {
		fmt.Fprintf(stderr, "rtvirt-analyze: %v\n", err)
		return 2
	}
	return status
}

// run analyses (or, with replay, re-ingests) every input and writes the
// report to stdout, or to outPath when it is set. The file is created only
// after every input has been opened and parsed — the report is rendered in
// memory first — so a run that fails on its input leaves no file behind.
// The status is the worst admission verdict (see exitCode).
func run(stdout io.Writer, o options, outPath string, jsonOut, replay bool, paths []string) (int, error) {
	if outPath == "" {
		return report(stdout, o, jsonOut, replay, paths)
	}
	var buf bytes.Buffer
	status, err := report(&buf, o, jsonOut, replay, paths)
	if err != nil {
		return 0, err
	}
	return status, os.WriteFile(outPath, buf.Bytes(), 0o666)
}

// report writes the analysis (or replay) of every input to out.
func report(out io.Writer, o options, jsonOut, replay bool, paths []string) (int, error) {
	if replay {
		for i, path := range paths {
			if len(paths) > 1 {
				fmt.Fprintf(out, "==== %s ====\n", path)
			}
			if err := replayTrace(out, path); err != nil {
				return 0, err
			}
			if i < len(paths)-1 {
				fmt.Fprintln(out)
			}
		}
		return 0, nil
	}

	status := 0
	for i, path := range paths {
		if len(paths) > 1 {
			fmt.Fprintf(out, "==== %s ====\n", path)
		}
		f, err := os.Open(path)
		if err != nil {
			return 0, err
		}
		sc, err := scenario.Parse(f)
		f.Close()
		if err != nil {
			return 0, err
		}
		if o.pcpus > 0 {
			sc.PCPUs = o.pcpus
		}

		h, err := analyze.Analyze(sc, analyze.Options{
			Quantum: simtime.Micros(o.quantumUS),
			Period:  simtime.Micros(o.periodUS),
			Slack:   simtime.Micros(o.slackUS),
		})
		if err != nil {
			return 0, err
		}

		if jsonOut {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			if err := enc.Encode(h); err != nil {
				return 0, err
			}
		} else {
			print(out, h)
		}
		if c := exitCode(sc, h); c > status {
			status = c
		}
		if i < len(paths)-1 {
			fmt.Fprintln(out)
		}
	}
	return status, nil
}

// replayTrace re-ingests one JSONL telemetry stream through the standard
// sinks and writes counts, Arg quantiles and the schedule digest.
func replayTrace(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	summary := &trace.Summary{}
	stats := &trace.StatsSink{}
	n, err := trace.ReadJSONL(f, summary, stats)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "replayed %d events\n", n)
	fmt.Fprintf(w, "events: %s\n\n", stats.Counts())
	if err := stats.Report(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	summary.Close(summary.To) // settle open runs at the last event
	return summary.Write(w)
}

// exitCode gates CI on the admission verdict of the scenario's own stack:
// 0 when that stack admits the workload, 1 when it does not.
func exitCode(sc scenario.Scenario, h analyze.HostAnalysis) int {
	switch sc.Stack {
	case "rt-xen", "rtxen", "two-level-edf", "edf":
		if !h.RTXenAdmitted {
			return 1
		}
	default: // rtvirt (and credit, which shares the fluid accounting)
		if !h.RTVirtAdmitted {
			return 1
		}
	}
	return 0
}

func print(w io.Writer, h analyze.HostAnalysis) {
	for _, vm := range h.VMs {
		fmt.Fprintf(w, "VM %-14s tasks=%.3f CPUs", vm.Name, vm.TaskBW)
		if vm.Background > 0 {
			fmt.Fprintf(w, " (+%d background)", vm.Background)
		}
		fmt.Fprintln(w)
		if len(vm.RTXen) > vm.DeclaredVCPUs {
			fmt.Fprintf(w, "  note: needs %d VCPUs, scenario declares %d\n",
				len(vm.RTXen), vm.DeclaredVCPUs)
		}
		for i := range vm.RTXen {
			x, r := vm.RTXen[i], vm.RTVirt[i]
			fmt.Fprintf(w, "  vcpu%d  tasks %v\n", i, x.Tasks)
			fmt.Fprintf(w, "         rt-xen interface %v = %.3f CPUs\n", x.Interface, x.Bandwidth())
			fmt.Fprintf(w, "         rtvirt reserve   %v = %.3f CPUs\n", r.Interface, r.Bandwidth())
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "host: %d physical CPUs, %.3f CPUs of real-time demand\n", h.PCPUs, h.TaskBW)
	fmt.Fprintf(w, "  rt-xen  allocated %.3f CPUs, claimed %d (partitioned)",
		h.RTXenAllocated, h.RTXenClaimedFFD)
	if h.RTXenClaimedGEDF > 0 {
		fmt.Fprintf(w, " / %d (gEDF)", h.RTXenClaimedGEDF)
	}
	fmt.Fprintf(w, " — %s\n", verdict(h.RTXenAdmitted))
	fmt.Fprintf(w, "  rtvirt  allocated %.3f CPUs — %s\n", h.RTVirtAllocated, verdict(h.RTVirtAdmitted))
	fmt.Fprintf(w, "  rtvirt bandwidth saving vs static interfaces: %.1f%%\n", h.SavingPct)
}

func verdict(ok bool) string {
	if ok {
		return "ADMITTED"
	}
	return "REJECTED"
}
