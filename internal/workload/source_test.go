package workload

import (
	"testing"

	"rtvirt/internal/dist"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// countingGaps is an ArrivalProcess that counts its draws.
type countingGaps struct{ n int }

func (c *countingGaps) Next(simtime.Time, *sim.RNG) simtime.Duration { c.n++; return ms(1) }
func (c *countingGaps) Clone() ArrivalProcess                        { n := *c; return &n }
func (c *countingGaps) String() string                               { return "counting" }

// drain sends until the source refuses, drawing a gap after each request
// the way every driver does, and returns the number sent.
func drain(s *Source) int {
	n := 0
	now := simtime.Time(0)
	for {
		if _, ok := s.Send(); !ok {
			return n
		}
		n++
		gap, ok := s.Gap(now)
		if !ok {
			continue
		}
		now = now.Add(gap)
	}
}

func TestSourceCapStopsAtN(t *testing.T) {
	gaps := &countingGaps{}
	s := Source{Arrivals: gaps, Requests: 5}
	s.Open(sim.NewRNG(1))
	if got := drain(&s); got != 5 || s.Sent() != 5 {
		t.Fatalf("capped stream sent %d (Sent %d), want 5", got, s.Sent())
	}
	// A gap follows every request but the last.
	if gaps.n != 4 {
		t.Fatalf("drew %d gaps for 5 requests, want 4", gaps.n)
	}
	if _, ok := s.Gap(0); ok || gaps.n != 4 {
		t.Fatal("a capped stream drew a gap")
	}
}

func TestSourceUnboundedAndNegativeCap(t *testing.T) {
	s := Source{Arrivals: &countingGaps{}}
	s.Open(sim.NewRNG(1))
	for i := 0; i < 1000; i++ {
		if _, ok := s.Send(); !ok {
			t.Fatalf("cap 0 stopped after %d requests; 0 means unbounded", i)
		}
		if _, ok := s.Gap(0); !ok {
			t.Fatalf("cap 0 refused a gap after %d requests", i+1)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Open accepted a negative cap")
		}
	}()
	neg := Source{Arrivals: &countingGaps{}, Requests: -1}
	neg.Open(sim.NewRNG(1))
}

func TestSourceStop(t *testing.T) {
	s := Source{Arrivals: &countingGaps{}}
	s.Open(sim.NewRNG(1))
	for i := 0; i < 3; i++ {
		s.Send()
	}
	s.Stop()
	if _, ok := s.Send(); ok || s.Sent() != 3 {
		t.Fatalf("stopped stream sent again (Sent %d)", s.Sent())
	}
}

// TestSourceDrawOrder pins the sequence every driver relies on: each
// request draws its demand, then the gap, from the one split stream, the
// same values as sampling the distributions directly in that order.
func TestSourceDrawOrder(t *testing.T) {
	demand := dist.Normal{MeanD: simtime.Micros(45), Stddev: simtime.Micros(3), Min: simtime.Micros(35)}
	gaps := dist.Uniform{Lo: ms(100), Hi: simtime.Seconds(1)}
	s := Source{Arrivals: Renewal{D: gaps}, Demand: demand}
	s.Open(sim.New(7).RNG().Split())
	ref := sim.New(7).RNG().Split()
	now := simtime.Time(0)
	for i := 0; i < 200; i++ {
		d, ok := s.Send()
		if !ok {
			t.Fatal("unbounded stream refused")
		}
		g, _ := s.Gap(now)
		if wd, wg := demand.Sample(ref), gaps.Sample(ref); d != wd || g != wg {
			t.Fatalf("request %d drew (%v, %v), direct sampling gives (%v, %v)", i, d, g, wd, wg)
		}
		now = now.Add(g)
	}
	// Without a demand distribution a request sends 0 and draws nothing.
	bare := Source{Arrivals: Renewal{D: gaps}}
	bare.Open(sim.New(7).RNG().Split())
	ref = sim.New(7).RNG().Split()
	if d, _ := bare.Send(); d != 0 {
		t.Fatalf("demand %v without a distribution, want 0", d)
	}
	if g, _ := bare.Gap(0); g != gaps.Sample(ref) {
		t.Fatal("a request without a demand distribution consumed a draw")
	}
}

// TestSourceCloneMMPP forks a stream mid-way through a stateful MMPP: the
// clone continues exactly as the original does, and running the clone
// first leaves the original's continuation untouched.
func TestSourceCloneMMPP(t *testing.T) {
	mk := func() Source {
		s := Source{
			Arrivals: NewMMPP([]float64{50, 400}, []simtime.Duration{ms(80), ms(40)}),
			Demand:   dist.Exponential{MeanD: simtime.Micros(50)},
			Requests: 400,
		}
		s.Open(sim.NewRNG(11))
		return s
	}
	type draw struct{ demand, gap simtime.Duration }
	run := func(s *Source, now simtime.Time, n int) ([]draw, simtime.Time) {
		var out []draw
		for i := 0; i < n; i++ {
			d, _ := s.Send()
			g, _ := s.Gap(now)
			out = append(out, draw{d, g})
			now = now.Add(g)
		}
		return out, now
	}
	straight := mk()
	want, _ := run(&straight, 0, 300)

	orig := mk()
	_, now := run(&orig, 0, 150)
	fork := orig.Clone()
	forked, _ := run(&fork, now, 150)
	rest, _ := run(&orig, now, 150)
	for i := range rest {
		if forked[i] != want[150+i] || rest[i] != want[150+i] {
			t.Fatalf("after the fork, request %d: clone %v, original %v, unforked %v",
				150+i, forked[i], rest[i], want[150+i])
		}
	}
	if fork.Sent() != 300 || orig.Sent() != 300 {
		t.Fatalf("Sent after fork: clone %d, original %d, want 300 each", fork.Sent(), orig.Sent())
	}
}

// TestClientThrottlesPastDeclaredRate drives a sporadic task four times
// faster than its declared minimum inter-arrival: every request still
// counts as sent, and those inside the constraint are throttled.
func TestClientThrottlesPastDeclaredRate(t *testing.T) {
	s, h, g := rig(t, 1)
	tk := task.New(0, "burst", task.Sporadic, task.Params{Slice: ms(1), Period: ms(20)})
	if err := g.Register(tk); err != nil {
		t.Fatal(err)
	}
	c := NewClient(g, tk, Renewal{D: dist.Constant{D: ms(5)}})
	c.Requests = 40
	h.Start()
	c.Start(0)
	s.RunFor(simtime.Seconds(1))
	if c.Sent() != 40 || c.Throttled != 30 || tk.Stats().Released != 10 {
		t.Fatalf("sent %d, throttled %d, released %d; want 40, 30, 10",
			c.Sent(), c.Throttled, tk.Stats().Released)
	}
}
