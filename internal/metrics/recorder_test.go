package metrics

import (
	"testing"

	"rtvirt/internal/simtime"
)

func TestMergePreservesSortednessTailCase(t *testing.T) {
	var a, b LatencyRecorder
	for i := 0; i < 100; i++ {
		a.Add(simtime.Duration(i))
	}
	for i := 100; i < 200; i++ {
		b.Add(simtime.Duration(i))
	}
	if a.Percentile(1) != 0 || a.Percentile(100) != 99 || b.Percentile(1) != 100 || b.Percentile(100) != 199 {
		t.Fatal("monotone Add streams should rank as their sorted order")
	}
	a.Merge(&b)
	// The tail-mergeable Merge must still produce correct answers, and a
	// repeated query reuses the sorted view it built.
	if got := a.Percentile(50); got != 99 {
		t.Fatalf("p50 after merge = %v, want 99", got)
	}
	if a.Count() != 200 || a.Max() != 199 {
		t.Fatalf("count/max after merge = %d/%v", a.Count(), a.Max())
	}
	if n := testing.AllocsPerRun(10, func() { a.Percentile(50) }); n != 0 {
		t.Fatalf("repeated Percentile after merge allocates %.1f/op, want 0", n)
	}
}

func TestMergeOverlappingFallsBackToResort(t *testing.T) {
	var a, b LatencyRecorder
	a.Add(10)
	a.Add(20)
	b.Add(5) // below a's max: not tail-mergeable
	b.Add(30)
	a.Merge(&b)
	want := []simtime.Duration{5, 10, 20, 30}
	for i, p := range []float64{25, 50, 75, 100} {
		if got := a.Percentile(p); got != want[i] {
			t.Fatalf("p%g = %v, want %v (the sorted union)", p, got, want[i])
		}
	}
}

func TestMergeEmptyOther(t *testing.T) {
	var a, b LatencyRecorder
	a.Add(1)
	a.Add(2)
	a.Merge(&b)
	if a.Count() != 2 || a.Percentile(50) != 1 || a.Percentile(100) != 2 || a.Max() != 2 || a.Mean() != 1 {
		t.Fatalf("merge of empty recorder disturbed state: count=%d p50=%v p100=%v",
			a.Count(), a.Percentile(50), a.Percentile(100))
	}
}

func TestMergeIntoEmpty(t *testing.T) {
	var a, b LatencyRecorder
	b.Add(3)
	b.Add(1) // unsorted source
	a.Merge(&b)
	if got := a.Percentile(100); got != 3 {
		t.Fatalf("p100 = %v, want 3", got)
	}
	if got := a.Percentile(50); got != 1 {
		t.Fatalf("p50 = %v, want 1: a merged unsorted source must be ranked sorted", got)
	}
}

func TestReserve(t *testing.T) {
	var l LatencyRecorder
	l.Add(1)
	l.Reserve(1000)
	// AllocsPerRun calls the function twice (a warm-up and one run), so the
	// two calls add the 1000 reserved samples.
	next := 0
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 500; i++ {
			l.Add(simtime.Duration(next))
			next++
		}
	}); n != 0 {
		t.Fatalf("Adds within reserved capacity allocated %.1f times, want 0", n)
	}
	if l.Count() != 1001 || l.Max() != 999 || l.Percentile(100) != 999 {
		t.Fatalf("count/max after reserved adds = %d/%v", l.Count(), l.Max())
	}
	l.Reserve(0)
	l.Reserve(-5)
}

func BenchmarkAddExact(b *testing.B) {
	var l LatencyRecorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Add(simtime.Duration(i % 4096))
	}
}
