// Package trace is the simulator's observability pipeline: typed telemetry
// events (Event) flow from every decision-making layer — the hypervisor
// kernel, the host schedulers, the guest OS — through a Bus to pluggable
// sinks (Recorder, Counts, StatsSink, JSONL). The disabled path is free:
// an empty Bus emits nothing and allocates nothing, so instrumentation
// stays wired in even under the parallel experiment runner.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"log"
	"strconv"

	"rtvirt/internal/simtime"
)

// Recorder is a Sink that retains events in order up to a configurable
// cap. The zero value is ready to use with an unbounded buffer.
type Recorder struct {
	// Max bounds the number of retained events (0 = unbounded). When
	// full, further events are counted but dropped, and a single
	// narrator line is logged so truncation is never silent.
	Max int
	// Logf, when set, replaces log.Printf for the truncation notice
	// (tests use it to keep output quiet).
	Logf func(format string, args ...any)

	events  []Event
	dropped int
}

// Consume implements Sink.
func (r *Recorder) Consume(ev Event) { r.Add(ev) }

// Add appends an event, honouring the cap.
func (r *Recorder) Add(ev Event) {
	if r.Max > 0 && len(r.events) >= r.Max {
		if r.dropped == 0 {
			logf := r.Logf
			if logf == nil {
				logf = log.Printf
			}
			logf("trace: recorder cap of %d events reached at %v; further events are counted but dropped", r.Max, ev.At)
		}
		r.dropped++
		return
	}
	r.events = append(r.events, ev)
}

// Records returns the retained events in order.
func (r *Recorder) Records() []Event { return r.events }

// Dropped reports how many events the cap discarded.
func (r *Recorder) Dropped() int { return r.dropped }

// Len reports the number of retained events.
func (r *Recorder) Len() int { return len(r.events) }

// Counts tallies the retained events per kind (dropped events excluded).
func (r *Recorder) Counts() Counts {
	var c Counts
	for i := range r.events {
		c.Consume(r.events[i])
	}
	return c
}

// WriteCSV emits the trace as CSV with a header row. Arg is written raw
// (kind-specific units, typically nanoseconds).
func (r *Recorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"at_us", "kind", "pcpu", "vm", "vcpu", "task", "arg"}); err != nil {
		return err
	}
	for _, ev := range r.events {
		row := []string{
			strconv.FormatFloat(ev.At.Micros(), 'f', 3, 64),
			ev.Kind.String(),
			strconv.Itoa(ev.PCPU),
			ev.VM,
			strconv.Itoa(ev.VCPU),
			ev.Task,
			strconv.FormatInt(ev.Arg, 10),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

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
