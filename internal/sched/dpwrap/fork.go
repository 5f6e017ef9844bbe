package dpwrap

import (
	"rtvirt/internal/clone"
	"rtvirt/internal/eventq"
	"rtvirt/internal/hv"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
)

// ForkHandler implements sim.Handler: deep-copy the slice plan (per-PCPU
// wrap entries with consumed quota), the ID-indexed carry remainders and
// idle-tax state, and the pending boundary/tax timers. With the hot state
// in flat value slices, most of the fork is plain slice copies — only the
// VCPU pointers inside entries and the admission-order list need remapping
// through ctx; rtv is recomputed from the remapped list. rebuild's scratch
// (rt, pinnedFill) holds nothing between slices, so the fork is left with
// none and grows its own.
func (s *Scheduler) ForkHandler(ctx *clone.Ctx) sim.Handler {
	if n, ok := ctx.Lookup(s); ok {
		return n.(*Scheduler)
	}
	ns := &Scheduler{
		cfg:           s.cfg,
		h:             clone.Get(ctx, s.h),
		id:            s.id,
		sliceStart:    s.sliceStart,
		sliceEnd:      s.sliceEnd,
		started:       s.started,
		replanPending: s.replanPending,
		rescuePending: s.rescuePending,
		Boundaries:    s.Boundaries,
		SlicesTotal:   s.SlicesTotal,
	}
	ctx.Put(s, ns)
	ns.boundaryEv = eventq.CloneHandle(ctx, s.boundaryEv)
	ns.taxEv = eventq.CloneHandle(ctx, s.taxEv)
	ns.vcpus = make([]*hv.VCPU, len(s.vcpus))
	for i, v := range s.vcpus {
		ns.vcpus[i] = clone.Get(ctx, v)
	}
	ns.refreshRT()
	ns.carry = append([]int64(nil), s.carry...)
	ns.taxFactor = append([]float64(nil), s.taxFactor...)
	ns.windowUse = append([]simtime.Duration(nil), s.windowUse...)
	ns.pcpu = make([]*pcpuState, len(s.pcpu))
	for i, ps := range s.pcpu {
		nps := &pcpuState{
			entries:   append([]entry(nil), ps.entries...),
			idx:       append([]int32(nil), ps.idx...),
			firstLive: ps.firstLive,
			lastEntry: ps.lastEntry,
			lastAt:    ps.lastAt,
			bgCursor:  ps.bgCursor,
		}
		for j := range nps.entries {
			nps.entries[j].v = clone.Get(ctx, nps.entries[j].v)
		}
		ns.pcpu[i] = nps
	}
	return ns
}
