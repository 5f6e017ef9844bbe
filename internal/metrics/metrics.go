// Package metrics collects the observables the RTVirt evaluation reports:
// request latencies with exact tail percentiles, deadline-miss ratios, and
// time-integrated CPU-bandwidth allocations.
package metrics

import (
	"fmt"
	"slices"
	"strings"

	"rtvirt/internal/simtime"
)

// LatencyRecorder stores every sample so percentiles are exact, matching
// how the paper measures NIC-to-NIC latency distributions.
type LatencyRecorder struct {
	samples []simtime.Duration
	sorted  bool
	sum     simtime.Duration
}

// Add records one latency sample.
func (l *LatencyRecorder) Add(d simtime.Duration) {
	l.sum += d
	// Keep the sorted flag when samples arrive in non-decreasing order, so
	// a later Merge of time-ordered recorders can skip the re-sort.
	if len(l.samples) == 0 {
		l.sorted = true
	} else if l.sorted && d < l.samples[len(l.samples)-1] {
		l.sorted = false
	}
	l.samples = append(l.samples, d)
}

// Reserve preallocates capacity for n further samples, for workloads whose
// request count is known up front.
func (l *LatencyRecorder) Reserve(n int) {
	if n <= 0 || cap(l.samples)-len(l.samples) >= n {
		return
	}
	grown := make([]simtime.Duration, len(l.samples), len(l.samples)+n)
	copy(grown, l.samples)
	l.samples = grown
}

// Merge appends all samples from other. When both recorders are already
// sorted and every sample in other is at or above l's current maximum (the
// common shard-by-time case), the merged recorder stays sorted and the
// next percentile query skips the re-sort.
func (l *LatencyRecorder) Merge(other *LatencyRecorder) {
	if len(other.samples) == 0 {
		return
	}
	tailMergeable := l.isSorted() && other.isSorted() &&
		(len(l.samples) == 0 || l.samples[len(l.samples)-1] <= other.samples[0])
	l.samples = append(l.samples, other.samples...)
	l.sum += other.sum
	l.sorted = tailMergeable
}

// isSorted reports whether the sample slice is known-sorted (trivially so
// when it holds at most one sample).
func (l *LatencyRecorder) isSorted() bool { return l.sorted || len(l.samples) <= 1 }

// Count reports the number of samples.
func (l *LatencyRecorder) Count() int { return len(l.samples) }

// Mean reports the mean latency, or 0 with no samples.
func (l *LatencyRecorder) Mean() simtime.Duration {
	n := l.Count()
	if n == 0 {
		return 0
	}
	return l.sum / simtime.Duration(n)
}

// Max reports the largest sample, or 0 with no samples.
func (l *LatencyRecorder) Max() simtime.Duration {
	l.sort()
	if len(l.samples) == 0 {
		return 0
	}
	return l.samples[len(l.samples)-1]
}

// Percentile reports the p-th percentile (0 < p ≤ 100) using the
// nearest-rank method, so the result is always an observed sample.
func (l *LatencyRecorder) Percentile(p float64) simtime.Duration {
	if p <= 0 || p > 100 {
		panic(fmt.Sprintf("metrics: percentile %g out of (0,100]", p))
	}
	if len(l.samples) == 0 {
		return 0
	}
	l.sort()
	rank := int(p/100*float64(len(l.samples))+0.9999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(l.samples) {
		rank = len(l.samples) - 1
	}
	return l.samples[rank]
}

// CDF returns (latency, cumulative fraction) pairs at every distinct
// sample value, suitable for plotting Figure 5 style curves.
func (l *LatencyRecorder) CDF() []CDFPoint {
	l.sort()
	n := len(l.samples)
	if n == 0 {
		return nil
	}
	var pts []CDFPoint
	for i := 0; i < n; {
		j := i
		for j < n && l.samples[j] == l.samples[i] {
			j++
		}
		pts = append(pts, CDFPoint{Latency: l.samples[i], Fraction: float64(j) / float64(n)})
		i = j
	}
	return pts
}

// TailSummary formats the standard tail table row used by Table 4.
func (l *LatencyRecorder) TailSummary() string {
	return fmt.Sprintf("p90=%v p95=%v p99=%v p99.9=%v",
		l.Percentile(90), l.Percentile(95), l.Percentile(99), l.Percentile(99.9))
}

func (l *LatencyRecorder) sort() {
	if l.sorted {
		return
	}
	slices.Sort(l.samples)
	l.sorted = true
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Latency  simtime.Duration
	Fraction float64
}

// BandwidthMeter integrates CPU allocation over time: Observe(t, cpus)
// records that from the previous observation until t, cpus CPUs-worth of
// bandwidth was allocated. Average() reports mean CPUs over the window.
type BandwidthMeter struct {
	last     simtime.Time
	started  bool
	integral float64 // CPU·ns
	span     simtime.Duration
}

// Start begins the measurement window at t.
func (b *BandwidthMeter) Start(t simtime.Time) {
	b.last = t
	b.started = true
}

// Observe accrues the interval [last, t) at an allocation of cpus CPUs.
func (b *BandwidthMeter) Observe(t simtime.Time, cpus float64) {
	if !b.started {
		b.Start(t)
		return
	}
	if t < b.last {
		panic("metrics: BandwidthMeter time went backwards")
	}
	dt := t.Sub(b.last)
	b.integral += cpus * float64(dt)
	b.span += dt
	b.last = t
}

// Average reports the time-weighted mean CPU allocation.
func (b *BandwidthMeter) Average() float64 {
	if b.span == 0 {
		return 0
	}
	return b.integral / float64(b.span)
}

// Span reports the total observed window.
func (b *BandwidthMeter) Span() simtime.Duration { return b.span }

// MissSummary aggregates deadline outcomes across a set of tasks.
type MissSummary struct {
	Tasks    int
	Released int
	Judged   int
	Missed   int
	// WorstTask / WorstRatio identify the task with the highest miss ratio.
	WorstTask  string
	WorstRatio float64
	// TasksWithMisses counts tasks that missed at least one deadline.
	TasksWithMisses int
}

// Ratio reports the overall miss ratio.
func (m MissSummary) Ratio() float64 {
	if m.Judged == 0 {
		return 0
	}
	return float64(m.Missed) / float64(m.Judged)
}

// String implements fmt.Stringer.
func (m MissSummary) String() string {
	return fmt.Sprintf("tasks=%d released=%d judged=%d missed=%d (%.3f%%) worst=%q %.3f%%",
		m.Tasks, m.Released, m.Judged, m.Missed, 100*m.Ratio(), m.WorstTask, 100*m.WorstRatio)
}

// Table is a minimal fixed-width text table builder for experiment output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
