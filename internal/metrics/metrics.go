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
//
// A sample in [0, 2³²) ns — every latency under 4.29 s — is kept as a
// uint32 in append-only blocks: the first holds minBlock samples, each new
// one as many as the recorder already holds, up to maxBlock, so growth
// never copies a sample and an open block's unused tail stays under
// maxBlock samples. No stored sample is ever overwritten, which lets
// Clone share the blocks. Any other sample goes exactly into wide.
// Count, Mean and Max are running values; Percentile and CDF rank one
// sorted view of the narrow samples together with the sorted wide list,
// and reuse it until the next Add or Merge.
type LatencyRecorder struct {
	// Add's common path touches only the fields up to top; they come
	// first so that they share a cache line.
	open   []uint32 // the block being filled
	narrow int      // samples in closed and open
	sum    simtime.Duration
	// top is the largest sample with its sign bit flipped, which keeps
	// the order and makes the zero value rank below every sample.
	top    uint64
	closed [][]uint32 // blocks no longer appended to, each capped at its length
	wide   []simtime.Duration
	// view is the narrow samples sorted; it is current while it holds
	// all narrow of them.
	view []uint32
}

// Block sizes, in samples: small enough that a recorder with a handful of
// samples stays small, and that a cluster's hundreds of open blocks waste
// little, large enough that the block list stays short.
const (
	minBlock = 64
	maxBlock = 1024
)

// Add records one latency sample.
func (l *LatencyRecorder) Add(d simtime.Duration) {
	if k := uint64(d) ^ 1<<63; k > l.top {
		l.top = k
	}
	l.sum += d
	if uint64(d) >= 1<<32 {
		l.wide = append(l.wide, d)
		return
	}
	if len(l.open) == cap(l.open) {
		l.grow()
	}
	l.open = append(l.open, uint32(d))
	l.narrow++
}

// grow opens the next block, as large as the narrow samples so far
// within [minBlock, maxBlock].
func (l *LatencyRecorder) grow() { l.newBlock(min(max(l.narrow, minBlock), maxBlock)) }

// newBlock closes the open block and opens an empty one of size samples.
// The closed block is capped at its length, so nothing appends into it.
func (l *LatencyRecorder) newBlock(size int) {
	if len(l.open) > 0 {
		l.closed = append(l.closed, l.open[:len(l.open):len(l.open)])
	}
	l.open = make([]uint32, 0, size)
}

// Reserve preallocates room for n further samples under 2³² ns, for
// workloads whose request count is known up front: the next n such Adds
// allocate nothing.
func (l *LatencyRecorder) Reserve(n int) {
	if n <= 0 || cap(l.open)-len(l.open) >= n {
		return
	}
	l.newBlock(n)
}

// Merge adds all samples from other.
func (l *LatencyRecorder) Merge(other *LatencyRecorder) {
	if other.Count() == 0 {
		return
	}
	if other == l {
		c := other.Clone()
		other = &c
	}
	l.top = max(l.top, other.top)
	l.sum += other.sum
	for _, b := range other.closed {
		l.appendNarrow(b)
	}
	l.appendNarrow(other.open)
	l.wide = append(l.wide, other.wide...)
}

// appendNarrow copies narrow samples into the blocks.
func (l *LatencyRecorder) appendNarrow(src []uint32) {
	for len(src) > 0 {
		if len(l.open) == cap(l.open) {
			l.grow()
		}
		k := copy(l.open[len(l.open):cap(l.open)], src)
		l.open = l.open[:len(l.open)+k]
		l.narrow += k
		src = src[k:]
	}
}

// Count reports the number of samples.
func (l *LatencyRecorder) Count() int { return l.narrow + len(l.wide) }

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
	if l.Count() == 0 {
		return 0
	}
	return simtime.Duration(l.top ^ 1<<63)
}

// Percentile reports the p-th percentile (0 < p ≤ 100) using the
// nearest-rank method, so the result is always an observed sample.
func (l *LatencyRecorder) Percentile(p float64) simtime.Duration {
	if p <= 0 || p > 100 {
		panic(fmt.Sprintf("metrics: percentile %g out of (0,100]", p))
	}
	n := l.Count()
	if n == 0 {
		return 0
	}
	neg := l.sort()
	rank := int(p/100*float64(n)+0.9999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return l.at(rank, neg)
}

// CDF returns (latency, cumulative fraction) pairs at every distinct
// sample value, suitable for plotting Figure 5 style curves.
func (l *LatencyRecorder) CDF() []CDFPoint {
	n := l.Count()
	if n == 0 {
		return nil
	}
	neg := l.sort()
	var pts []CDFPoint
	for i := 0; i < n; {
		v := l.at(i, neg)
		j := i + 1
		for j < n && l.at(j, neg) == v {
			j++
		}
		pts = append(pts, CDFPoint{Latency: v, Fraction: float64(j) / float64(n)})
		i = j
	}
	return pts
}

// sort brings the view and the wide list up to date and returns how many
// wide samples are negative. Those rank below every narrow sample, and the
// rest (≥ 2³² ns) above.
func (l *LatencyRecorder) sort() (neg int) {
	if !slices.IsSorted(l.wide) {
		slices.Sort(l.wide)
	}
	if len(l.view) != l.narrow {
		v := l.view[:0]
		if cap(v) < l.narrow {
			v = make([]uint32, 0, l.narrow)
		}
		for _, b := range l.closed {
			v = append(v, b...)
		}
		v = append(v, l.open...)
		slices.Sort(v)
		l.view = v
	}
	neg, _ = slices.BinarySearch(l.wide, 0)
	return neg
}

// at returns the rank-th smallest sample once sort has run.
func (l *LatencyRecorder) at(rank, neg int) simtime.Duration {
	if rank < neg {
		return l.wide[rank]
	}
	if rank -= neg; rank < len(l.view) {
		return simtime.Duration(l.view[rank])
	}
	return l.wide[neg+rank-len(l.view)]
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Latency  simtime.Duration
	Fraction float64
}

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
