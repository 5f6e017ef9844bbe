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

// StatsSink streams events into per-kind counters and P² estimators of
// the 99th percentile of Arg. It holds O(kinds) memory regardless of run
// length, so it can stay attached for arbitrarily long simulations where a
// Recorder would hit its cap. The zero value is ready to use.
type StatsSink struct {
	counts Counts
	q      [NumKinds]*metrics.P2Quantile
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
	est := s.q[ev.Kind]
	if est == nil {
		est = metrics.NewP2Quantile(0.99)
		s.q[ev.Kind] = est
	}
	est.Add(simtime.Duration(ev.Arg))
}

// Counts returns the per-kind counters accumulated so far.
func (s *StatsSink) Counts() Counts { return s.counts }

// ArgQuantile returns the current p99 estimate of Arg for kind k and
// whether any samples were seen.
func (s *StatsSink) ArgQuantile(k Kind) (simtime.Duration, bool) {
	est := s.q[k]
	if est == nil || est.Count() == 0 {
		return 0, false
	}
	return est.Value(), true
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
