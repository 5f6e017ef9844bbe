package workload

import (
	"fmt"

	"rtvirt/internal/dist"
	"rtvirt/internal/guest"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// Source is one request stream: the sequence every request driver (Client,
// Memcached, IOApp and the cluster's RemoteClient) takes its requests from.
// Each request draws its CPU demand and then the gap to the next request,
// both from the source's own RNG stream (IOApp draws its device waits from
// it too), and the stream ends at its cap or at Stop. A driver calls Send
// when a request fires, delivers it, and then schedules the following one
// with Gap.
type Source struct {
	// Arrivals draws the gap to each next request (Renewal for i.i.d.
	// gaps).
	Arrivals ArrivalProcess
	// Demand draws each request's CPU demand; nil sends 0, which releases
	// the task's declared slice.
	Demand dist.Duration
	// Requests caps the stream (0 = unbounded; Open rejects a negative
	// cap).
	Requests int

	sent    int
	stopped bool
	rng     *sim.RNG
}

// Open gives the stream its RNG stream; drivers call it from Start with a
// fresh split of their simulator's RNG. It panics on a negative cap.
func (s *Source) Open(rng *sim.RNG) {
	if s.Requests < 0 {
		panic(fmt.Sprintf("workload: negative request cap %d", s.Requests))
	}
	s.rng = rng
}

// Send issues the next request: it reports false once the stream is
// stopped or has sent its cap, and otherwise counts the request and draws
// its demand.
func (s *Source) Send() (demand simtime.Duration, ok bool) {
	if s.stopped || s.capped() {
		return 0, false
	}
	s.sent++
	if s.Demand != nil {
		demand = s.Demand.Sample(s.rng)
	}
	return demand, true
}

// Gap draws the time from now to the next request. Once the last request
// under the cap is sent it draws nothing and reports false.
func (s *Source) Gap(now simtime.Time) (simtime.Duration, bool) {
	if s.capped() {
		return 0, false
	}
	return s.Arrivals.Next(now, s.rng), true
}

func (s *Source) capped() bool { return s.Requests > 0 && s.sent >= s.Requests }

// Stop ends the stream: no request is sent after it.
func (s *Source) Stop() { s.stopped = true }

// Sent reports the number of requests issued so far.
func (s *Source) Sent() int { return s.sent }

// Clone copies the stream for a forked run: the copy continues the same
// sequence as the original and shares no state with it.
func (s *Source) Clone() Source {
	n := *s
	n.Arrivals = s.Arrivals.Clone()
	if s.rng != nil {
		n.rng = s.rng.Clone()
	}
	return n
}

// Deliver releases one request's job of t on g at now, unless t is
// sporadic and its declared minimum inter-arrival has not passed since the
// last release. Then it releases nothing and reports false, and the caller
// counts the request as throttled.
func Deliver(g *guest.OS, t *task.Task, demand simtime.Duration, now simtime.Time) bool {
	if t.EarliestNextRelease() > now {
		return false
	}
	g.ReleaseJob(t, demand)
	return true
}
