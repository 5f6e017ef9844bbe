package trace_test

import (
	"bytes"
	"strings"
	"testing"

	"rtvirt/internal/simtime"
	"rtvirt/internal/trace"
)

func TestKindStringRoundTrip(t *testing.T) {
	for i := 0; i < trace.NumKinds; i++ {
		k := trace.Kind(i)
		got, err := trace.KindFromString(k.String())
		if err != nil || got != k {
			t.Fatalf("kind %d round-trip: got %v, err %v", i, got, err)
		}
	}
	if _, err := trace.KindFromString("bogus"); err == nil {
		t.Fatal("unknown kind name accepted")
	}
}

func TestCountsMerge(t *testing.T) {
	var a, b trace.Counts
	a[trace.Dispatch] = 3
	a[trace.HypercallIncBW] = 1
	b[trace.Dispatch] = 2
	b[trace.HypercallDecBW] = 4
	a.Merge(b)
	if a[trace.Dispatch] != 5 || a.Hypercalls() != 5 || a.Total() != 10 {
		t.Fatalf("merge wrong: %v", a)
	}
	if s := a.String(); !strings.Contains(s, "dispatch=5") || !strings.Contains(s, "hc-dec-bw=4") {
		t.Fatalf("counts string wrong: %q", s)
	}
	var empty trace.Counts
	if empty.String() != "(no events)" {
		t.Fatalf("empty counts string: %q", empty.String())
	}
}

func TestStatsSink(t *testing.T) {
	s := &trace.StatsSink{}
	for i := int64(1); i <= 1000; i++ {
		s.Consume(trace.Event{Kind: trace.JobDone, Arg: int64(simtime.Millis(i))})
	}
	s.Consume(trace.Event{Kind: trace.Migrate, PCPU: 1})
	c := s.Counts()
	if c[trace.JobDone] != 1000 || c[trace.Migrate] != 1 {
		t.Fatalf("stats counts wrong: %v", c)
	}
	p99, ok := s.ArgQuantile(trace.JobDone)
	if !ok {
		t.Fatal("no quantile for job-done")
	}
	// P² estimate of the p99 of 1..1000ms should be near 990ms.
	if p99 < simtime.Millis(980) || p99 > simtime.Millis(1000) {
		t.Fatalf("p99 estimate %v, want ≈990ms", p99)
	}
	// Count-only kinds carry no distribution.
	if _, ok := s.ArgQuantile(trace.Migrate); ok {
		t.Fatal("quantile reported for a count-only kind")
	}
	var buf bytes.Buffer
	if err := s.Report(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"p99(arg)", "job-done", "1000", "migrate"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
