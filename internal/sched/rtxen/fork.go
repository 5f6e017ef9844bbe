package rtxen

import (
	"rtvirt/internal/clone"
	"rtvirt/internal/eventq"
	"rtvirt/internal/sim"
)

// ForkHandler implements sim.Handler. The struct-of-arrays layout makes
// this almost a value copy: the srv array is plain data apart from each
// server's pending replenishment timer (remapped through ctx), and the
// runqueue is a sorted ID slice copied verbatim, so the copy's scan ranks
// are the original's.
func (s *Scheduler) ForkHandler(ctx *clone.Ctx) sim.Handler {
	if n, ok := ctx.Lookup(s); ok {
		return n.(*Scheduler)
	}
	ns := &Scheduler{
		cfg:      s.cfg,
		h:        clone.Get(ctx, s.h),
		id:       s.id,
		bgCursor: s.bgCursor,
		started:  s.started,
	}
	ctx.Put(s, ns)
	ns.srv = append([]serverState(nil), s.srv...)
	for i := range ns.srv {
		ns.srv[i].replEv = eventq.CloneHandle(ctx, s.srv[i].replEv)
	}
	ns.runq.v = append([]int32(nil), s.runq.v...)
	return ns
}
