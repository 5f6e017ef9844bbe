// Command rtvirt-sim runs a user-described scenario on the simulated host
// and reports per-task timeliness plus scheduler overhead.
//
// The scenario is a JSON file (see internal/scenario for the schema and
// examples/scenarios/ for samples):
//
//	{
//	  "stack": "rtvirt",            // rtvirt | rt-xen | two-level-edf | credit
//	  "pcpus": 4,
//	  "seconds": 30,
//	  "seed": 1,
//	  "costs": {"context_switch": 2, "migration": 3,          // platform cost model, µs
//	            "hypercall": 10,                              // (omitted fields keep §4.5 defaults)
//	            "network_delay_us": 19},                      // client→server latency, must be > 0
//	  "vms": [
//	    {
//	      "name": "rt-vm",
//	      "vcpus": 1,
//	      "max_vcpus": 4,                                       // CPU hotplug bound
//	      "servers": [{"budget_us": 600, "period_us": 1000}],   // rt-xen / caps
//	      "weight": 256,                                        // credit only
//	      "slack_us": 500,                                      // per-VCPU budget slack
//	      "guest_sched": "pedf",                                // pedf (default) | gedf
//	      "priority_slack": false,                              // §6 priority-scaled slack
//	      "tasks": [
//	        {"name": "ctl", "kind": "periodic", "slice_us": 2000,
//	         "period_us": 10000, "phase_ms": 0, "priority": 0},
//	        {"name": "srv", "kind": "sporadic", "slice_us": 500,
//	         "period_us": 5000, "rate_hz": 50},                // 0 = 10 Hz; at most 10000
//	        {"name": "batch", "kind": "background"}
//	      ]
//	    }
//	  ]
//	}
//
// Usage:
//
//	rtvirt-sim scenario.json
//	rtvirt-sim -summary -trace-svg gantt.svg scenario.json  # schedule digest + first 100ms as a Gantt chart
//	rtvirt-sim -trace events.jsonl scenario.json  # stream telemetry; replay with rtvirt-analyze -replay
//	rtvirt-sim -parallel 4 a.json b.json c.json   # independent runs, output in arg order
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"rtvirt/internal/runner"
	"rtvirt/internal/scenario"
	"rtvirt/internal/simtime"
	"rtvirt/internal/trace"
)

// options holds the numeric flags, the ones validate checks.
type options struct {
	svgMS    int64
	parallel int
}

func defaultOptions() options { return options{svgMS: 100} }

// validate rejects flag values that would otherwise surface only after
// the scenario has run (an SVG window the renderer refuses) or be
// replaced silently (a negative worker count).
func (o options) validate() error {
	switch {
	case o.svgMS < 1:
		return fmt.Errorf("-svg-ms must be positive, got %d", o.svgMS)
	case o.svgMS > math.MaxInt64/int64(simtime.Millisecond):
		return fmt.Errorf("-svg-ms %d overflows the simulated clock", o.svgMS)
	case o.parallel < 0:
		return fmt.Errorf("-parallel must be 0 (GOMAXPROCS) or positive, got %d", o.parallel)
	}
	return nil
}

func main() {
	o := defaultOptions()
	var (
		traceOut = flag.String("trace", "", "stream every telemetry event to this JSONL file (re-ingest with rtvirt-analyze -replay)")
		traceSVG = flag.String("trace-svg", "", "render the schedule as an SVG Gantt chart to this file")
		summary  = flag.Bool("summary", false, "print a per-VCPU/per-PCPU schedule digest")
	)
	flag.Int64Var(&o.svgMS, "svg-ms", o.svgMS, "SVG window length in simulated milliseconds")
	flag.IntVar(&o.parallel, "parallel", o.parallel, "workers when running multiple scenarios (0 = GOMAXPROCS, 1 = sequential)")
	flag.Parse()
	if err := o.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "rtvirt-sim: %v\n", err)
		os.Exit(2)
	}
	runner.SetDefault(o.parallel)
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: rtvirt-sim [flags] <scenario.json> [more scenarios...]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	tracing := *traceSVG != "" || *summary
	if flag.NArg() > 1 {
		if tracing || *traceOut != "" {
			log.Fatal("trace/summary flags require a single scenario")
		}
		// Each scenario is an independent simulation: fan out over the
		// runner and print results in argument order.
		type outcome struct {
			res *scenario.Result
			err error
		}
		results := runner.Map(0, flag.Args(), func(path string) outcome {
			res, err := runScenario(path, "", scenario.Options{})
			return outcome{res, err}
		})
		for i, o := range results {
			if i > 0 {
				fmt.Println()
			}
			fmt.Printf("==== %s ====\n", flag.Arg(i))
			if o.err != nil {
				log.Fatal(o.err)
			}
			report(o.res)
		}
		return
	}

	var sinks []trace.Sink
	digest := &trace.Summary{}
	if *summary {
		sinks = append(sinks, digest)
	}
	gantt := &svgWindow{to: rtvirtTime(o.svgMS)}
	if *traceSVG != "" {
		sinks = append(sinks, gantt)
	}
	res, err := runScenario(flag.Arg(0), *traceOut, scenario.Options{Sinks: sinks})
	if err != nil {
		log.Fatal(err)
	}
	report(res)
	if *traceOut != "" {
		fmt.Printf("\ntelemetry (%d events) written to %s\n", res.Events.Total(), *traceOut)
	}
	if tracing || *traceOut != "" {
		fmt.Printf("events: %s\n", res.Events)
	}

	if *summary {
		fmt.Println()
		digest.Close(digest.To) // settle open runs at the last event
		if err := digest.Write(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
	if *traceSVG != "" {
		sf, err := os.Create(*traceSVG)
		if err != nil {
			log.Fatal(err)
		}
		if err := gantt.WriteSVG(sf, res.PCPUs, 0, gantt.to); err != nil {
			sf.Close()
			log.Fatal(err)
		}
		sf.Close()
		fmt.Printf("schedule Gantt (first %dms) written to %s\n", o.svgMS, *traceSVG)
	}
}

// svgWindow records the events the Gantt chart renders: those at or
// before its window's end, where WriteSVG stops reading.
type svgWindow struct {
	trace.Recorder
	to simtime.Time
}

// Consume implements trace.Sink.
func (w *svgWindow) Consume(ev trace.Event) {
	if ev.At <= w.to {
		w.Recorder.Consume(ev)
	}
}

// runScenario parses and executes one scenario file. With traceOut set
// it streams every telemetry event to that JSONL file, which is created
// only once the scenario has parsed, so a run that fails on its input
// leaves no file behind.
func runScenario(path, traceOut string, opts scenario.Options) (*scenario.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	sc, err := scenario.Parse(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	if traceOut == "" {
		return scenario.Run(sc, opts)
	}
	tf, err := os.Create(traceOut)
	if err != nil {
		return nil, err
	}
	jsonl := trace.NewJSONL(tf)
	opts.Sinks = append(opts.Sinks, jsonl)
	res, err := scenario.Run(sc, opts)
	if err == nil {
		err = jsonl.Flush()
	}
	if cerr := tf.Close(); err == nil {
		err = cerr
	}
	return res, err
}

// report prints the per-task timeliness summary for one run.
func report(res *scenario.Result) {
	fmt.Printf("ran %ds on %d PCPUs under %v\n", res.Seconds, res.PCPUs, res.Stack)
	fmt.Printf("reserved bandwidth: %.2f CPUs\n\n", res.AllocatedBW)
	for _, tr := range res.Tasks {
		s := tr.Stats
		if tr.Kind == "background" {
			fmt.Printf("%-14s %-12s background, consumed %v CPU time\n", tr.VM, tr.Name, s.TotalWork)
			continue
		}
		fmt.Printf("%-14s %-12s released=%5d completed=%5d missed=%4d (%.3f%%) mean-resp=%v",
			tr.VM, tr.Name, s.Released, s.Completed, s.Missed, 100*tr.MissRatio, s.MeanResp())
		if tr.Latency != nil && tr.Latency.Count() > 0 {
			fmt.Printf(" p99.9=%v", tr.Latency.Percentile(99.9))
		}
		fmt.Println()
	}
	ov := res.Overhead
	fmt.Printf("\nscheduler overhead: %.3f%% (schedule %v, context switches %v, %d migrations, %d hypercalls)\n",
		ov.Percent, ov.ScheduleTime, ov.CtxSwitchTime, ov.Migrations, ov.Hypercalls)
}

// rtvirtTime converts milliseconds to a simulated instant.
func rtvirtTime(ms int64) simtime.Time { return simtime.Time(simtime.Millis(ms)) }
