package credit

import (
	"slices"

	"rtvirt/internal/clone"
	"rtvirt/internal/sim"
)

// ForkHandler implements sim.Handler. With the credit accounts in a flat
// value array and the round-robin ring and bitmaps holding IDs, the fork
// is plain slice copies — no pointers to remap. The cursor is carried
// verbatim so the fork picks up the rotation exactly where the source
// left it.
func (s *Scheduler) ForkHandler(ctx *clone.Ctx) sim.Handler {
	if n, ok := ctx.Lookup(s); ok {
		return n.(*Scheduler)
	}
	ns := &Scheduler{
		cfg:     s.cfg,
		h:       clone.Get(ctx, s.h),
		id:      s.id,
		cursor:  s.cursor,
		started: s.started,
	}
	ctx.Put(s, ns)
	ns.vcpus = slices.Clone(s.vcpus)
	ns.st = slices.Clone(s.st)
	ns.member = slices.Clone(s.member)
	ns.ready = slices.Clone(s.ready)
	for b := range s.band {
		ns.band[b] = slices.Clone(s.band[b])
	}
	return ns
}
