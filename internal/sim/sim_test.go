package sim

import (
	"math"
	"testing"
	"testing/quick"

	"rtvirt/internal/clone"
	"rtvirt/internal/eventq"
	"rtvirt/internal/simtime"
)

// calls is a test-local handler that runs the func its payload indexes,
// so the kernel tests below can schedule behaviour inline.
type calls struct {
	s   *Simulator
	id  int32
	fns []func(simtime.Time)
}

func newCalls(s *Simulator) *calls {
	c := &calls{s: s}
	c.id = s.RegisterHandler(c)
	return c
}

func (c *calls) post(fn func(simtime.Time)) Payload {
	c.fns = append(c.fns, fn)
	return Payload{Handler: c.id, Arg: int64(len(c.fns) - 1)}
}

func (c *calls) at(at simtime.Time, fn func(simtime.Time)) eventq.Handle {
	return c.s.PostAt(at, c.post(fn))
}

func (c *calls) after(d simtime.Duration, fn func(simtime.Time)) eventq.Handle {
	return c.s.PostAfter(d, c.post(fn))
}

func (c *calls) HandleSimEvent(now simtime.Time, p Payload) { c.fns[p.Arg](now) }

func (c *calls) ForkHandler(*clone.Ctx) Handler { panic("calls: not forkable") }

func TestClockAdvances(t *testing.T) {
	s := New(1)
	c := newCalls(s)
	var at simtime.Time
	c.after(simtime.Millis(5), func(now simtime.Time) { at = now })
	if !s.Step() {
		t.Fatal("Step returned false with a pending event")
	}
	if at != simtime.Time(simtime.Millis(5)) || s.Now() != at {
		t.Fatalf("event at %v, clock %v; want 5ms", at, s.Now())
	}
	if s.Step() {
		t.Fatal("Step returned true with empty queue")
	}
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	s := New(1)
	c := newCalls(s)
	var fired []simtime.Time
	for _, ms := range []int64{1, 2, 3, 4, 5} {
		c.at(simtime.Time(simtime.Millis(ms)), func(now simtime.Time) { fired = append(fired, now) })
	}
	s.RunUntil(simtime.Time(simtime.Millis(3)))
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3 (inclusive boundary)", len(fired))
	}
	if s.Now() != simtime.Time(simtime.Millis(3)) {
		t.Fatalf("clock = %v, want 3ms", s.Now())
	}
	s.RunFor(simtime.Millis(10))
	if len(fired) != 5 {
		t.Fatalf("fired %d events after RunFor, want 5", len(fired))
	}
	if s.Now() != simtime.Time(simtime.Millis(13)) {
		t.Fatalf("clock = %v, want 13ms", s.Now())
	}
}

func TestSchedulingInsideCallback(t *testing.T) {
	s := New(1)
	c := newCalls(s)
	count := 0
	var tick func(now simtime.Time)
	tick = func(now simtime.Time) {
		count++
		if count < 10 {
			c.after(simtime.Millis(1), tick)
		}
	}
	c.after(0, tick)
	s.Drain(100)
	if count != 10 {
		t.Fatalf("ticks = %d, want 10", count)
	}
	if s.Now() != simtime.Time(simtime.Millis(9)) {
		t.Fatalf("clock = %v, want 9ms", s.Now())
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	s := New(1)
	c := newCalls(s)
	c.after(simtime.Millis(1), func(simtime.Time) {})
	s.RunFor(simtime.Millis(2))
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	c.at(0, func(simtime.Time) {})
}

func TestCancelPending(t *testing.T) {
	s := New(1)
	c := newCalls(s)
	fired := false
	e := c.after(simtime.Millis(1), func(simtime.Time) { fired = true })
	s.Cancel(e)
	s.Drain(10)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []uint64 {
		s := New(42)
		c := newCalls(s)
		var vals []uint64
		for i := 0; i < 32; i++ {
			d := simtime.Duration(s.RNG().Int63n(int64(simtime.Millis(10))))
			c.after(d, func(simtime.Time) { vals = append(vals, s.RNG().Uint64()) })
		}
		s.Drain(100)
		return vals
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d", i)
		}
	}
}

func TestRNGUniformBounds(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		if v := r.Int63n(13); v < 0 || v >= 13 {
			t.Fatalf("Int63n out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(9)
	n := 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %g, want ~1", variance)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(11)
	n := 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / float64(n); math.Abs(mean-1) > 0.02 {
		t.Fatalf("exp mean = %g, want ~1", mean)
	}
}

// Property: Int63n respects its bound for arbitrary positive bounds.
func TestQuickInt63n(t *testing.T) {
	r := NewRNG(99)
	f := func(n int64) bool {
		if n <= 0 {
			n = -n + 1
		}
		v := r.Int63n(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: splitting yields streams that do not trivially collide.
func TestSplitIndependence(t *testing.T) {
	a := NewRNG(5)
	b := a.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams collided %d times", same)
	}
}

func TestRescheduleMovesEvent(t *testing.T) {
	s := New(1)
	c := newCalls(s)
	var order []string
	h := c.at(100, func(simtime.Time) { order = append(order, "moved") })
	c.at(50, func(simtime.Time) { order = append(order, "fixed") })
	h = s.Reschedule(h, 10) // earlier than the fixed event
	s.RunUntil(30)
	if len(order) != 1 || order[0] != "moved" {
		t.Fatalf("after RunUntil(30): fired %v, want [moved]", order)
	}
	if h.Active() {
		t.Fatal("handle still active after its event fired")
	}
	h2 := c.at(200, func(simtime.Time) { order = append(order, "late") })
	s.Reschedule(h2, 60) // later move still lands before the horizon
	s.RunUntil(1000)
	if len(order) != 3 || order[1] != "fixed" || order[2] != "late" {
		t.Fatalf("final fire order %v, want [moved fixed late]", order)
	}
}

func TestRescheduleIntoPastPanics(t *testing.T) {
	s := New(1)
	c := newCalls(s)
	h := c.at(100, func(simtime.Time) {})
	c.at(50, func(simtime.Time) {})
	s.RunUntil(60)
	defer func() {
		if recover() == nil {
			t.Fatal("rescheduling before now did not panic")
		}
	}()
	s.Reschedule(h, 10)
}

// RunUntil must cost exactly one queue peek per fired event: with N events
// at or before the horizon, the loop body runs N times and the bound check
// rides on the same peek. EventsFired is the observable loop count.
func TestRunUntilFiresExactlyPending(t *testing.T) {
	s := New(1)
	c := newCalls(s)
	const before, after = 37, 5
	for i := 0; i < before; i++ {
		c.at(simtime.Time(10+i), func(simtime.Time) {})
	}
	for i := 0; i < after; i++ {
		c.at(simtime.Time(1000+i), func(simtime.Time) {})
	}
	s.RunUntil(500)
	if got := s.EventsFired(); got != before {
		t.Fatalf("EventsFired = %d, want %d", got, before)
	}
	if s.Now() != 500 {
		t.Fatalf("Now = %v, want 500", s.Now())
	}
	if s.Pending() != after {
		t.Fatalf("Pending = %d, want %d", s.Pending(), after)
	}
}

func TestDrainBudgetPanics(t *testing.T) {
	s := New(1)
	c := newCalls(s)
	var tick func(simtime.Time)
	tick = func(simtime.Time) { c.after(1, tick) }
	c.after(0, tick)
	defer func() {
		if recover() == nil {
			t.Fatal("runaway Drain did not panic")
		}
	}()
	s.Drain(1000)
}
