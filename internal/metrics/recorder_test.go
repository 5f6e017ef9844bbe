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
	if !a.isSorted() || !b.isSorted() {
		t.Fatal("monotone Add streams should keep recorders sorted")
	}
	a.Merge(&b)
	if !a.sorted {
		t.Fatal("tail-mergeable Merge dropped the sorted flag")
	}
	// The fast path must still produce correct answers.
	if got := a.Percentile(50); got != 99 {
		t.Fatalf("p50 after merge = %v, want 99", got)
	}
	if a.Count() != 200 || a.Max() != 199 {
		t.Fatalf("count/max after merge = %d/%v", a.Count(), a.Max())
	}
}

func TestMergeOverlappingFallsBackToResort(t *testing.T) {
	var a, b LatencyRecorder
	a.Add(10)
	a.Add(20)
	b.Add(5) // below a's max: not tail-mergeable
	b.Add(30)
	a.Merge(&b)
	if a.sorted {
		t.Fatal("overlapping Merge must clear the sorted flag")
	}
	if got := a.Percentile(100); got != 30 {
		t.Fatalf("p100 = %v, want 30", got)
	}
	if got := a.Percentile(25); got != 5 {
		t.Fatalf("p25 = %v, want 5", got)
	}
}

func TestMergeEmptyOther(t *testing.T) {
	var a, b LatencyRecorder
	a.Add(1)
	a.Add(2)
	a.Merge(&b)
	if a.Count() != 2 || !a.isSorted() {
		t.Fatalf("merge of empty recorder disturbed state: count=%d sorted=%v", a.Count(), a.isSorted())
	}
}

func TestMergeIntoEmpty(t *testing.T) {
	var a, b LatencyRecorder
	b.Add(3)
	b.Add(1) // unsorted source
	a.Merge(&b)
	if a.sorted {
		t.Fatal("merge of unsorted source must not claim sortedness")
	}
	if got := a.Percentile(100); got != 3 {
		t.Fatalf("p100 = %v, want 3", got)
	}
}

func TestReserve(t *testing.T) {
	var l LatencyRecorder
	l.Add(1)
	l.Reserve(1000)
	if cap(l.samples)-len(l.samples) < 1000 {
		t.Fatalf("Reserve left headroom %d, want >= 1000", cap(l.samples)-len(l.samples))
	}
	base := &l.samples[0]
	for i := 0; i < 1000; i++ {
		l.Add(simtime.Duration(i))
	}
	if &l.samples[0] != base {
		t.Fatal("Adds within reserved capacity reallocated the backing array")
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
