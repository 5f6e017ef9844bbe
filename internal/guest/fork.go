package guest

import (
	"rtvirt/internal/clone"
	"rtvirt/internal/eventq"
	"rtvirt/internal/hv"
	"rtvirt/internal/sim"
	"rtvirt/internal/task"
)

// ForkDriver implements hv.GuestDriver. The host calls it while walking its
// VM list; the simulator calls ForkHandler for the same OS later and gets
// the memoized clone back.
func (g *OS) ForkDriver(ctx *clone.Ctx) hv.GuestDriver { return g.cloneOS(ctx) }

// ForkHandler implements sim.Handler.
func (g *OS) ForkHandler(ctx *clone.Ctx) sim.Handler { return g.cloneOS(ctx) }

// cloneOS deep-copies the guest: per-VCPU ready queues (heap layout and tie
// break sequence preserved verbatim), task states with their pending release
// timers and demand overrides, and the admission bookkeeping. The job pool
// is not shared: the fork starts with an empty one.
func (g *OS) cloneOS(ctx *clone.Ctx) *OS {
	if n, ok := ctx.Lookup(g); ok {
		return n.(*OS)
	}
	ng := &OS{
		cfg:       g.cfg,
		host:      clone.Get(ctx, g.host),
		sim:       clone.Get(ctx, g.sim),
		handlerID: g.handlerID,
		tasks:     make(map[*task.Task]*taskState, len(g.tasks)),
		byOwner:   make([]*taskState, len(g.byOwner)),
	}
	ctx.Put(g, ng)
	// After ctx.Put so the VM's Guest.ForkDriver recursion memo-hits us.
	ng.vm = hv.CloneVM(ctx, g.vm)
	ng.vcpus = make([]*vcpuState, len(g.vcpus))
	for i, vs := range g.vcpus {
		ng.vcpus[i] = cloneVCPUState(ctx, vs)
	}
	ng.order = make([]*taskState, len(g.order))
	for i, ts := range g.order {
		nts := cloneTaskState(ctx, ts)
		ng.order[i] = nts
		ng.tasks[nts.t] = nts
		ng.byOwner[nts.owner] = nts
	}
	return ng
}

// cloneVCPUState keeps the per-VCPU task list in its original order: bwSum
// adds float64 bandwidths in slice order, so a reordering would perturb
// admission arithmetic in the fork.
func cloneVCPUState(ctx *clone.Ctx, vs *vcpuState) *vcpuState {
	if vs == nil {
		return nil
	}
	if n, ok := ctx.Lookup(vs); ok {
		return n.(*vcpuState)
	}
	nvs := &vcpuState{v: clone.Get(ctx, vs.v)}
	ctx.Put(vs, nvs)
	nvs.ready = vs.ready.clone(ctx)
	nvs.tasks = make([]*taskState, len(vs.tasks))
	for i, ts := range vs.tasks {
		nvs.tasks[i] = cloneTaskState(ctx, ts)
	}
	return nvs
}

func cloneTaskState(ctx *clone.Ctx, ts *taskState) *taskState {
	if n, ok := ctx.Lookup(ts); ok {
		return n.(*taskState)
	}
	nts := &taskState{
		t:           task.Clone(ctx, ts.t),
		owner:       ts.owner,
		nextRelease: ts.nextRelease,
		demand:      ts.demand,
	}
	ctx.Put(ts, nts)
	nts.os = clone.Get(ctx, ts.os)
	nts.vs = cloneVCPUState(ctx, ts.vs)
	nts.releaseEv = eventq.CloneHandle(ctx, ts.releaseEv)
	return nts
}

// clone deep-copies the ready queue, remapping jobs through ctx. Slots are
// copied verbatim — same heap layout, same tie-break sequence numbers, and
// each cloned job keeps its Slot — so pop order in the fork is
// bit-identical.
func (q *readyQueue) clone(ctx *clone.Ctx) *readyQueue {
	nq := &readyQueue{items: make([]readySlot, len(q.items)), seq: q.seq}
	for i, s := range q.items {
		s.job = task.CloneJob(ctx, s.job)
		nq.items[i] = s
	}
	return nq
}
