// Package trace is the simulator's observability pipeline: typed telemetry
// events (Event) flow from every decision-making layer — the hypervisor
// kernel, the host schedulers, the guest OS — through a Bus to pluggable
// sinks (Summary, StatsSink, JSONL, Counts, Recorder). The disabled path
// is free: an empty Bus emits nothing and allocates nothing, so
// instrumentation stays wired in even under the parallel experiment
// runner.
package trace

import (
	"fmt"

	"rtvirt/internal/simtime"
)

// Recorder is a Sink that keeps every event it consumes, in order, for
// the renderers that read a window of the schedule (WriteSVG, Timeline).
// It has no cap: a caller that renders a window keeps only the events up
// to its end. Summary, StatsSink and JSONL stream whole runs instead. The
// zero value is ready to use.
type Recorder struct {
	events []Event
}

// Consume implements Sink.
func (r *Recorder) Consume(ev Event) { r.events = append(r.events, ev) }

// Records returns the kept events in order.
func (r *Recorder) Records() []Event { return r.events }

// Timeline renders a coarse textual Gantt chart of PCPU occupancy between
// from and to, with one row per bucket — handy for eyeballing schedules in
// tests and examples.
func (r *Recorder) Timeline(pcpus int, from, to simtime.Time, buckets int) string {
	if buckets <= 0 || to <= from {
		return ""
	}
	// occupant[pcpu][bucket] = VM name observed last in the bucket.
	occ := make([][]string, pcpus)
	for i := range occ {
		occ[i] = make([]string, buckets)
	}
	span := to.Sub(from)
	cur := make([]string, pcpus)
	idx := 0
	for b := 0; b < buckets; b++ {
		bucketEnd := from.Add(simtime.ScaleDuration(span, int64(b+1), int64(buckets)))
		for idx < len(r.events) && r.events[idx].At < bucketEnd {
			ev := r.events[idx]
			if ev.Kind == Dispatch && ev.PCPU >= 0 && ev.PCPU < pcpus {
				cur[ev.PCPU] = ev.VM
			}
			idx++
		}
		for p := 0; p < pcpus; p++ {
			occ[p][b] = cur[p]
		}
	}
	out := ""
	for p := 0; p < pcpus; p++ {
		out += fmt.Sprintf("pcpu%-2d |", p)
		for b := 0; b < buckets; b++ {
			name := occ[p][b]
			switch {
			case name == "":
				out += "."
			default:
				out += string(name[len(name)-1])
			}
		}
		out += "|\n"
	}
	return out
}
