package hv

import (
	"rtvirt/internal/clone"
	"rtvirt/internal/eventq"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
)

// The kernel-test fakes are never forked and never schedule typed events;
// the stubs below satisfy the widened HostScheduler/GuestDriver interfaces
// and fail loudly if a test ever exercises them.

func (s *fifoSched) HandleSimEvent(simtime.Time, sim.Payload) { panic("fifoSched: no typed events") }
func (s *fifoSched) ForkHandler(*clone.Ctx) sim.Handler       { panic("fifoSched: not forkable") }

func (s *migrSched) HandleSimEvent(simtime.Time, sim.Payload) { panic("migrSched: no typed events") }
func (s *migrSched) ForkHandler(*clone.Ctx) sim.Handler       { panic("migrSched: not forkable") }

func (s *chaosSched) HandleSimEvent(simtime.Time, sim.Payload) { panic("chaosSched: no typed events") }
func (s *chaosSched) ForkHandler(*clone.Ctx) sim.Handler       { panic("chaosSched: not forkable") }

func (g *fifoGuest) ForkDriver(*clone.Ctx) GuestDriver  { panic("fifoGuest: not forkable") }
func (g *chaosGuest) ForkDriver(*clone.Ctx) GuestDriver { panic("chaosGuest: not forkable") }
func (g *prioGuest) ForkDriver(*clone.Ctx) GuestDriver  { panic("prioGuest: not forkable") }

// calls is the kernel tests' own event handler: it runs the func a payload
// indexes, so a test can act at a chosen instant, ordered among the
// same-instant kernel events exactly where it was posted.
type calls struct {
	id  int32
	fns []func(simtime.Time)
}

// last is the calls handler of the simulator callAt last served. Tests in
// this package run one at a time and drive one simulator each, so one slot
// suffices, and it keeps no earlier test's world alive; a simulator that
// comes back after another gets a fresh handler.
var last struct {
	s *sim.Simulator
	c *calls
}

// callAt runs fn at instant at on s.
func callAt(s *sim.Simulator, at simtime.Time, fn func(simtime.Time)) eventq.Handle {
	if last.s != s {
		last.s, last.c = s, &calls{}
		last.c.id = s.RegisterHandler(last.c)
	}
	c := last.c
	c.fns = append(c.fns, fn)
	return s.PostAt(at, sim.Payload{Handler: c.id, Arg: int64(len(c.fns) - 1)})
}

// callAfter runs fn d from now on s.
func callAfter(s *sim.Simulator, d simtime.Duration, fn func(simtime.Time)) eventq.Handle {
	return callAt(s, s.Now().Add(d), fn)
}

func (c *calls) HandleSimEvent(now simtime.Time, p sim.Payload) { c.fns[p.Arg](now) }
func (c *calls) ForkHandler(*clone.Ctx) sim.Handler             { panic("calls: not forkable") }
