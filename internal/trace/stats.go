package trace

import (
	"fmt"
	"io"

	"rtvirt/internal/metrics"
	"rtvirt/internal/simtime"
)

// statKinds are the kinds whose Arg is a duration worth summarising as a
// distribution (response times, lateness, grants, budgets). Count-only
// kinds (migrations, depletes, guest switches, admissions) are covered by
// the Counts half of the sink.
var statKinds = [NumKinds]bool{
	Dispatch:  true,
	Preempt:   true,
	JobDone:   true,
	JobMiss:   true,
	Replenish: true,
}

// StatsSink streams events into per-kind counters and an exact
// distribution of Arg per duration-bearing kind, from which it reports the
// nearest-rank 99th percentile. It keeps every such Arg, about 4 bytes per
// sample (8 for one of 4.29 s or more), where a Recorder keeps whole
// events. The zero value is ready to use.
type StatsSink struct {
	counts Counts
	args   [NumKinds]metrics.LatencyRecorder
}

// Consume implements Sink.
func (s *StatsSink) Consume(ev Event) {
	if int(ev.Kind) >= NumKinds {
		return
	}
	s.counts[ev.Kind]++
	if !statKinds[ev.Kind] {
		return
	}
	s.args[ev.Kind].Add(simtime.Duration(ev.Arg))
}

// Counts returns the per-kind counters accumulated so far.
func (s *StatsSink) Counts() Counts { return s.counts }

// ArgQuantile returns the nearest-rank p99 of Arg for kind k and whether
// any samples were seen.
func (s *StatsSink) ArgQuantile(k Kind) (simtime.Duration, bool) {
	r := &s.args[k]
	if r.Count() == 0 {
		return 0, false
	}
	return r.Percentile(99), true
}

// Report writes a per-kind table: count, and for duration-bearing kinds
// the p99 of Arg.
func (s *StatsSink) Report(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-14s %10s %14s\n", "kind", "count", "p99(arg)"); err != nil {
		return err
	}
	for i := 0; i < NumKinds; i++ {
		if s.counts[i] == 0 {
			continue
		}
		line := fmt.Sprintf("%-14s %10d", Kind(i), s.counts[i])
		if v, ok := s.ArgQuantile(Kind(i)); ok {
			line += fmt.Sprintf(" %14v", v)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}
