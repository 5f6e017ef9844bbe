package metrics

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
)

func TestPercentileNearestRank(t *testing.T) {
	var l LatencyRecorder
	for i := 1; i <= 100; i++ {
		l.Add(simtime.Duration(i))
	}
	cases := map[float64]simtime.Duration{
		1: 1, 50: 50, 90: 90, 99: 99, 99.9: 100, 100: 100,
	}
	for p, want := range cases {
		if got := l.Percentile(p); got != want {
			t.Errorf("P%g = %v, want %v", p, got, want)
		}
	}
}

func TestPercentileSingleSample(t *testing.T) {
	var l LatencyRecorder
	l.Add(42)
	for _, p := range []float64{0.1, 50, 99.9, 100} {
		if l.Percentile(p) != 42 {
			t.Fatalf("P%g of single sample != sample", p)
		}
	}
}

func TestPercentileEmptyAndBounds(t *testing.T) {
	var l LatencyRecorder
	if l.Percentile(99) != 0 {
		t.Fatal("empty recorder percentile should be 0")
	}
	l.Add(1)
	for _, bad := range []float64{0, -5, 101} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Percentile(%g) did not panic", bad)
				}
			}()
			l.Percentile(bad)
		}()
	}
}

func TestMeanMaxCount(t *testing.T) {
	var l LatencyRecorder
	for _, v := range []simtime.Duration{10, 20, 30} {
		l.Add(v)
	}
	if l.Count() != 3 || l.Mean() != 20 || l.Max() != 30 {
		t.Fatalf("count/mean/max = %d/%v/%v", l.Count(), l.Mean(), l.Max())
	}
}

func TestMerge(t *testing.T) {
	var a, b LatencyRecorder
	a.Add(1)
	a.Add(3)
	b.Add(2)
	a.Merge(&b)
	if a.Count() != 3 || a.Mean() != 2 {
		t.Fatalf("merge wrong: count=%d mean=%v", a.Count(), a.Mean())
	}
}

func TestCDF(t *testing.T) {
	var l LatencyRecorder
	for _, v := range []simtime.Duration{10, 10, 20, 30} {
		l.Add(v)
	}
	pts := l.CDF()
	if len(pts) != 3 {
		t.Fatalf("CDF has %d points, want 3", len(pts))
	}
	if pts[0] != (CDFPoint{10, 0.5}) || pts[2] != (CDFPoint{30, 1.0}) {
		t.Fatalf("CDF wrong: %+v", pts)
	}
	if !sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i].Latency < pts[j].Latency }) {
		t.Fatal("CDF not sorted")
	}
	var empty LatencyRecorder
	if empty.CDF() != nil {
		t.Fatal("empty CDF should be nil")
	}
}

// Property: nearest-rank percentile always returns an observed sample, and
// is monotone in p.
func TestQuickPercentile(t *testing.T) {
	rng := sim.NewRNG(1)
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var l LatencyRecorder
		set := map[simtime.Duration]bool{}
		for _, v := range raw {
			d := simtime.Duration(v)
			l.Add(d)
			set[d] = true
		}
		prev := simtime.Duration(-1)
		for _, p := range []float64{0.001, 1, 25, 50, 75, 90, 99, 99.9, 100} {
			v := l.Percentile(p)
			if !set[v] || v < prev {
				return false
			}
			prev = v
		}
		_ = rng
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMissSummary(t *testing.T) {
	m := MissSummary{Tasks: 4, Released: 100, Judged: 90, Missed: 9, WorstTask: "t3", WorstRatio: 0.2}
	if m.Ratio() != 0.1 {
		t.Fatalf("Ratio = %g, want 0.1", m.Ratio())
	}
	if (MissSummary{}).Ratio() != 0 {
		t.Fatal("empty summary ratio should be 0")
	}
	if !strings.Contains(m.String(), "t3") {
		t.Fatal("String missing worst task")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Name", "CPUs")
	tb.AddRow("RTVirt", 2.11)
	tb.AddRow("RT-Xen", 2.33)
	s := tb.String()
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), s)
	}
	if !strings.Contains(lines[0], "Name") || !strings.Contains(lines[2], "2.110") {
		t.Fatalf("table content wrong:\n%s", s)
	}
}
