package main

import (
	"slices"
)

// metricDef names one reported metric. The lists below must equal the
// end_to_end and per_layer lists of BENCHMARK.json, which alone holds the
// regression bounds; TestMetricsMatchBenchmarkJSON keeps them in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the simulator sees, taken from the
// untraced runs as the median across runs. Times are reference seconds
// (gauge.go); setup_s is one too, under the name the benchmark format fixes.
var endToEnd = []metricDef{
	{"wall_ref_s", "s", "lower"},
	{"sim_s_per_ref_s", "sim-s/s", "higher"},
	{"setup_s", "s", "lower"},
	{"alloc_mib", "MiB", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
}

// perLayer are the metrics of single layers, taken from the traced runs.
// Host-clock CPU shares and costs per operation sit beside the program's
// own meters; hv.sim_overhead_pct is the one simulated-clock quantity.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, metricDef{l + ".self_pct", "%", "lower"})
	}
	return append(out,
		metricDef{"sim.events", "count", "lower"},
		metricDef{"sim.windows", "count", "lower"},
		metricDef{"hv.schedule_calls", "count", "lower"},
		metricDef{"hv.ctx_switches", "count", "lower"},
		metricDef{"hv.migrations", "count", "lower"},
		metricDef{"hv.hypercalls", "count", "lower"},
		metricDef{"hv.guest_switches", "count", "lower"},
		metricDef{"cluster.requests", "count", "higher"},
		metricDef{"eventq.ns_per_event", "ns", "lower"},
		metricDef{"sim.ns_per_event", "ns", "lower"},
		metricDef{"sched.ns_per_pick", "ns", "lower"},
		metricDef{"sim.pdes.ns_per_window", "ns", "lower"},
		metricDef{"sim.events_per_window", "count", "higher"},
		metricDef{"hv.sim_overhead_pct", "%", "lower"},
		metricDef{"trace_overhead_pct", "%", "lower"},
		metricDef{"unattributed_pct", "%", "lower"},
		metricDef{"host.speed", "ratio", "higher"},
	)
}()

// metricValue is one metric as the benchmark prints it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits attaches each metric's unit from defs; every def must have a
// value.
func withUnits(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			panic("rtvirt-perf: no value for metric " + d.Name)
		}
		out[d.Name] = metricValue{v, d.Unit}
	}
	return out
}

func median(runs []runResult, f func(runResult) float64) float64 {
	vs := make([]float64, len(runs))
	for i, r := range runs {
		vs[i] = f(r)
	}
	return medianOf(vs)
}

// medianOf sorts vs and returns its median.
func medianOf(vs []float64) float64 {
	slices.Sort(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// ratio is a/b, or 0 where the workload has none of b.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndValues computes the end-to-end metrics from passed untraced runs.
func endToEndValues(untraced []runResult) map[string]metricValue {
	return withUnits(endToEnd, map[string]float64{
		"wall_ref_s":      median(untraced, func(r runResult) float64 { return r.WallS * r.Speed }),
		"sim_s_per_ref_s": median(untraced, func(r runResult) float64 { return r.SimS / (r.RunS * r.Speed) }),
		"setup_s":         median(untraced, func(r runResult) float64 { return r.SetupS * r.Speed }),
		"alloc_mib":       median(untraced, func(r runResult) float64 { return r.AllocMiB }),
		"peak_rss_mib":    median(untraced, func(r runResult) float64 { return r.PeakRSSMiB }),
	})
}

func refRunS(r runResult) float64 { return r.RunS * r.Speed }

// perLayerValues computes the per-layer metrics from passed traced runs,
// with the untraced runs as the base of the tracing overhead. Layer CPU is
// summed over the traced runs before shares are taken, so the shares rest
// on every sample collected.
func perLayerValues(traced, untraced []runResult) map[string]metricValue {
	layerNS := map[string]float64{}
	var cpuNS, sampledNS float64
	for _, r := range traced {
		cpuNS += r.CPUS * 1e9
		for l, ns := range r.LayerNS {
			layerNS[l] += float64(ns)
			sampledNS += float64(ns)
		}
	}
	// The meters are simulated counts, equal on every run of a seed.
	m := traced[0].Meters
	n := float64(len(traced))
	events, windows := float64(m.Events), float64(m.Windows)
	var schedNS float64
	for _, l := range []string{"sched.dpwrap", "sched.rtxen", "sched.credit"} {
		schedNS += layerNS[l]
	}
	values := map[string]float64{
		"sim.events":             events,
		"sim.windows":            windows,
		"hv.schedule_calls":      float64(m.ScheduleCalls),
		"hv.ctx_switches":        float64(m.CtxSwitches),
		"hv.migrations":          float64(m.Migrations),
		"hv.hypercalls":          float64(m.Hypercalls),
		"hv.guest_switches":      float64(m.GuestSwitches),
		"cluster.requests":       float64(m.Requests),
		"eventq.ns_per_event":    ratio(layerNS["eventq"], n*events),
		"sim.ns_per_event":       ratio(layerNS["sim"], n*events),
		"sched.ns_per_pick":      ratio(schedNS, n*float64(m.ScheduleCalls)),
		"sim.pdes.ns_per_window": ratio(layerNS["sim.pdes"]+layerNS["runner"]+layerNS["go.sched"], n*windows),
		"sim.events_per_window":  ratio(events, windows),
		"hv.sim_overhead_pct":    100 * ratio(float64(m.OverheadNS), float64(m.CapacityNS)),
		"trace_overhead_pct":     100 * (median(traced, refRunS)/median(untraced, refRunS) - 1),
		"host.speed":             median(traced, func(r runResult) float64 { return r.Speed }),
	}
	for _, l := range layers {
		values[l+".self_pct"] = 100 * ratio(layerNS[l], cpuNS)
	}
	values["unattributed_pct"] = 100*ratio(cpuNS-sampledNS, cpuNS) + values["other.self_pct"]
	return withUnits(perLayer, values)
}
