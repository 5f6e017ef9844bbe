// Package sim provides the discrete-event simulation kernel: a clock, a
// pending-event queue, and a deterministic random number source.
//
// All of the virtualized-host machinery (internal/hv, internal/guest, the
// schedulers, the workloads) runs on top of a single Simulator. The kernel
// is strictly single-threaded: events run one at a time in global time
// order, so no package above this one needs locks. Every event is a typed
// Payload delivered to a registered Handler (see fork.go), so a simulator
// can always be forked.
package sim

import (
	"fmt"

	"rtvirt/internal/eventq"
	"rtvirt/internal/simtime"
)

// Simulator is a discrete-event simulation engine. Create one with New.
type Simulator struct {
	now      simtime.Time
	q        eventq.Queue
	rng      *RNG
	seed     uint64
	fired    uint64
	inStep   bool
	handlers []Handler
}

// New returns a Simulator whose clock starts at 0 and whose random source
// is seeded with seed (same seed ⇒ identical run).
func New(seed uint64) *Simulator {
	return &Simulator{rng: NewRNG(seed), seed: seed}
}

// Now reports the current simulated time.
func (s *Simulator) Now() simtime.Time { return s.now }

// RNG returns the simulator's deterministic random source.
func (s *Simulator) RNG() *RNG { return s.rng }

// DerivedRNG returns a fresh generator whose stream is a pure function of
// (seed, tag) — it never consumes a draw from the main stream, so adding a
// derived stream cannot perturb existing event sequences. Layers that need
// their own substream (e.g. the hypervisor's platform-cost sampler) derive
// one from a stable tag such as their handler ID; two layers with distinct
// tags get decorrelated streams.
func (s *Simulator) DerivedRNG(tag uint64) *RNG {
	return NewRNG(SplitSeed(s.seed, tag))
}

// SplitSeed derives stream k's seed from seed with the splitmix64
// finalizer, so neighbouring streams share no structure. The result is
// never zero, since callers read a zero seed as "use the default".
func SplitSeed(seed, k uint64) uint64 {
	z := seed + (k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// EventsFired reports how many events have executed so far.
func (s *Simulator) EventsFired() uint64 { return s.fired }

// Pending reports the number of events waiting to run.
func (s *Simulator) Pending() int { return s.q.Len() }

// PostAt schedules a typed event at the absolute instant at, delivered to
// the registered handler named by p.Handler. Events at the same instant
// fire in the order they were posted. Scheduling in the past panics: that
// is always a logic error in a discrete-event model.
func (s *Simulator) PostAt(at simtime.Time, p Payload) eventq.Handle {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
	if p.Handler < 0 || int(p.Handler) >= len(s.handlers) {
		panic(fmt.Sprintf("sim: PostAt with unregistered handler %d", p.Handler))
	}
	return s.q.SchedulePayload(at, p)
}

// PostAfter schedules a typed event d from now.
func (s *Simulator) PostAfter(d simtime.Duration, p Payload) eventq.Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: scheduling event %v in the past", d))
	}
	return s.PostAt(s.now.Add(d), p)
}

// Cancel removes a pending event. Inert on zero and already-fired handles.
func (s *Simulator) Cancel(h eventq.Handle) { s.q.Cancel(h) }

// Reschedule moves a still-pending event to the absolute instant at,
// keeping its payload, and returns the replacement handle (the one passed
// in goes inert). It is the in-place equivalent of Cancel followed by
// PostAt with the same payload — including FIFO ordering among same-instant
// events — and reuses the event's record: a lone event is re-keyed with a
// single heap sift, and one sharing its instant with others moves between
// same-instant chains (see eventq). Rescheduling into the past or an
// inactive handle panics; callers that may hold a fired handle check
// Active first.
func (s *Simulator) Reschedule(h eventq.Handle, at simtime.Time) eventq.Handle {
	if at < s.now {
		panic(fmt.Sprintf("sim: rescheduling event at %v before now %v", at, s.now))
	}
	return s.q.Reschedule(h, at)
}

// Step fires the single earliest pending event, advancing the clock to its
// scheduled time. It reports false when no events remain.
func (s *Simulator) Step() bool {
	next := s.q.PeekTime()
	if next == simtime.Never {
		return false
	}
	s.fireAt(next)
	return true
}

// fireAt pops the earliest pending event, already known to sit at next,
// advances the clock and dispatches the event: the simulator is the only
// dispatcher. Splitting this from Step lets RunUntil pay exactly
// one PeekTime per event instead of peeking once for the bound check and
// again inside Step.
func (s *Simulator) fireAt(next simtime.Time) {
	if next < s.now {
		panic("sim: event queue went backwards")
	}
	s.now = next
	s.inStep = true
	_, p := s.q.Pop()
	s.dispatch(next, p)
	s.inStep = false
	s.fired++
}

// RunUntil fires events in order until the clock would pass end, leaving
// the clock at exactly end. Events scheduled at exactly end do run. Each
// event costs a single queue peek.
func (s *Simulator) RunUntil(end simtime.Time) {
	for {
		next := s.q.PeekTime()
		if next == simtime.Never || next > end {
			break
		}
		s.fireAt(next)
	}
	if end > s.now && end != simtime.Never {
		s.now = end
	}
}

// RunFor advances the simulation by d.
func (s *Simulator) RunFor(d simtime.Duration) { s.RunUntil(s.now.Add(d)) }

// Drain fires every remaining event. maxEvents bounds runaway simulations;
// it panics if exceeded.
func (s *Simulator) Drain(maxEvents uint64) {
	start := s.fired
	for s.Step() {
		if s.fired-start > maxEvents {
			panic("sim: Drain exceeded event budget (runaway simulation?)")
		}
	}
}
