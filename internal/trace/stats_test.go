package trace_test

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"rtvirt/internal/sim"
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
	// The nearest-rank p99 of 1..1000ms is the 990th sample.
	if p99 != simtime.Millis(990) {
		t.Fatalf("p99 = %v, want 990ms", p99)
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

// TestStatsSinkAdversarialDistributions feeds the sink the streams that
// break streaming quantile estimators — a point mass, a bimodal mixture
// whose p99 sits past a two-decade CDF jump, an infinite-variance Pareto
// tail reaching past 2³² ns, and monotone ramps — and requires its p99 to
// equal the nearest-rank p99 of a plain sorted copy of the Args.
func TestStatsSinkAdversarialDistributions(t *testing.T) {
	const samples = 60000
	for _, tc := range []struct {
		name string
		gen  func(i int, rng *sim.RNG) simtime.Duration
	}{
		{"constant", func(int, *sim.RNG) simtime.Duration { return simtime.Millisecond }},
		{"bimodal", func(_ int, rng *sim.RNG) simtime.Duration {
			base := simtime.Millisecond
			if rng.Float64() < 0.1 {
				base = 100 * simtime.Millisecond
			}
			return base + simtime.Duration(rng.Int63n(int64(base)/10))
		}},
		{"heavy-tail", func(_ int, rng *sim.RNG) simtime.Duration {
			u := rng.Float64()
			for u == 0 {
				u = rng.Float64()
			}
			return simtime.Duration(min(1e5/math.Pow(u, 1/1.5), 1e12))
		}},
		{"ascending-ramp", func(i int, _ *sim.RNG) simtime.Duration { return simtime.Duration(1000 + i) }},
		{"descending-ramp", func(i int, _ *sim.RNG) simtime.Duration { return simtime.Duration(1000 + samples - i) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := sim.NewRNG(17)
			s := &trace.StatsSink{}
			ref := make([]simtime.Duration, samples)
			for i := range ref {
				ref[i] = tc.gen(i, rng)
				s.Consume(trace.Event{Kind: trace.JobDone, Arg: int64(ref[i])})
			}
			slices.Sort(ref)
			want := ref[(99*samples+99)/100-1]
			if got, ok := s.ArgQuantile(trace.JobDone); !ok || got != want {
				t.Fatalf("p99 = %v, want the nearest-rank %v", got, want)
			}
		})
	}
}
