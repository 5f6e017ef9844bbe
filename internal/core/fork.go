package core

import (
	"rtvirt/internal/clone"
	"rtvirt/internal/guest"
	"rtvirt/internal/hv"
)

// Fork deep-copies the entire system — simulator clock and RNG streams,
// pending event queue, hypervisor, host scheduler, guests and workload
// handlers — into an independent replica that will replay the exact same
// future as the original (same events, same random draws, same dispatch
// decisions). The returned clone context maps every original object to its
// replica; use clone.Get to remap references the caller holds (tasks,
// guests, workload drivers). Every pending event is a typed payload, so
// Fork cannot fail.
func (sys *System) Fork() (*System, *clone.Ctx) {
	ctx := clone.New()
	nsys := &System{
		Cfg:  sys.Cfg,
		Sim:  sys.Sim.Fork(ctx),
		Host: sys.Host.ForkHandler(ctx).(*hv.Host),
	}
	ctx.Put(sys, nsys)
	nsys.guests = make([]*guest.OS, len(sys.guests))
	for i, g := range sys.guests {
		// ForkDriver is memo-aware: live guests were already cloned during
		// the host walk; guests that were shut down are cloned here.
		nsys.guests[i] = g.ForkDriver(ctx).(*guest.OS)
	}
	return nsys, ctx
}
