package sim

import (
	"fmt"

	"rtvirt/internal/clone"
	"rtvirt/internal/eventq"
	"rtvirt/internal/simtime"
)

// Payload is the one event form (see eventq.Payload): every layer posts
// its timers as payloads via PostAt/PostAfter, so they survive a Fork.
type Payload = eventq.Payload

// Handler receives typed events and participates in forking. Each stateful
// layer (the hypervisor, each host scheduler, each guest OS, workloads, the
// cluster manager) registers itself once and routes its timers through its
// handler ID.
type Handler interface {
	// HandleSimEvent is invoked when a payload event scheduled with this
	// handler's ID fires.
	HandleSimEvent(now simtime.Time, ev Payload)
	// ForkHandler returns this handler's deep copy for a forked simulation.
	// Implementations must be memo-aware: consult ctx first and return the
	// existing clone if another layer already forked this handler (e.g. the
	// host forks its scheduler and guest drivers while cloning VMs), and
	// Put the clone into ctx before filling reference fields so cycles
	// terminate. ForkHandler must not mutate the original.
	ForkHandler(ctx *clone.Ctx) Handler
}

// RegisterHandler adds h to the simulator's dispatch table and returns its
// stable ID, to be stored in Payload.Handler. Registration order defines
// the ID and is preserved across Fork, so payloads pending at fork time
// reach the forked handler of the same layer.
func (s *Simulator) RegisterHandler(h Handler) int32 {
	if h == nil {
		panic("sim: RegisterHandler with nil handler")
	}
	s.handlers = append(s.handlers, h)
	return int32(len(s.handlers) - 1)
}

// dispatch routes a fired payload event to its handler.
func (s *Simulator) dispatch(now simtime.Time, p Payload) {
	if p.Handler < 0 || int(p.Handler) >= len(s.handlers) {
		panic(fmt.Sprintf("sim: payload event for unregistered handler %d", p.Handler))
	}
	s.handlers[p.Handler].HandleSimEvent(now, p)
}

// Fork deep-copies the simulator: clock, event counter, RNG stream, the
// pending-event queue (bit-exact (at, seq) pairs and seq counter, so the
// fork fires the same events in the same order), and every registered
// handler. The copy and the original then evolve independently; running
// the fork is bit-identical to running the original from the same instant.
// Objects outside the handler graph that hold simulator references (tasks,
// metrics recorders) are cloned transitively through ctx by the handlers
// that own them.
func (s *Simulator) Fork(ctx *clone.Ctx) *Simulator {
	if s.inStep {
		panic("sim: Fork from inside an event callback")
	}
	ns := &Simulator{now: s.now, fired: s.fired, rng: s.rng.Clone(), seed: s.seed}
	ctx.Put(s, ns)
	ctx.Put(s.rng, ns.rng)
	s.q.CloneInto(&ns.q, ctx)
	// Handlers clone in registration order; earlier layers (the host) pull
	// later ones (schedulers, guest drivers) through ctx as they reach
	// them, so by the time the loop arrives most entries are memo hits.
	ns.handlers = make([]Handler, len(s.handlers))
	for i, h := range s.handlers {
		ns.handlers[i] = h.ForkHandler(ctx)
	}
	return ns
}
