package hv

import (
	"rtvirt/internal/clone"
	"rtvirt/internal/eventq"
	"rtvirt/internal/sim"
	"rtvirt/internal/task"
)

// ForkHandler implements sim.Handler: it deep-copies the entire hypervisor
// layer — PCPUs (with their pending kernel timers), VMs, VCPUs (with their
// in-flight jobs), overhead meters and shared-memory slots — then pulls the
// host scheduler and every guest driver through ctx so the whole world
// lands in the fork exactly once.
//
// The telemetry bus is deliberately NOT cloned: sinks are observers wired
// to the run that attached them, and tracing never influences scheduling,
// so a fork starts with a fresh, disabled bus and the caller attaches its
// own sinks.
func (h *Host) ForkHandler(ctx *clone.Ctx) sim.Handler {
	if n, ok := ctx.Lookup(h); ok {
		return n.(*Host)
	}
	nh := &Host{
		Sim:       clone.Get(ctx, h.Sim),
		Costs:     h.Costs,
		Overhead:  h.Overhead,
		started:   h.started,
		startTime: h.startTime,
		nextVCPU:  h.nextVCPU,
		handlerID: h.handlerID,
		// The cost stream continues from exactly where the original stands,
		// so fork and original sample identical future costs.
		costRNG: h.costRNG.Clone(),
	}
	ctx.Put(h, nh)
	// PCPUs first, shallow: VCPU clones reach back into them (v.pcpu), so
	// they must be memoized before any VCPU is cloned.
	nh.pcpus = make([]*PCPU, len(h.pcpus))
	for i, p := range h.pcpus {
		np := &PCPU{}
		*np = *p
		np.host = nh
		np.cur = nil
		nh.pcpus[i] = np
		ctx.Put(p, np)
	}
	for i, p := range h.pcpus {
		nh.pcpus[i].cur = cloneVCPU(ctx, p.cur)
		nh.pcpus[i].ev = eventq.CloneHandle(ctx, p.ev)
	}
	nh.vms = make([]*VM, len(h.vms))
	for i, vm := range h.vms {
		nh.vms[i] = cloneVM(ctx, vm)
	}
	nh.vcpus = make([]*VCPU, len(h.vcpus))
	for i, v := range h.vcpus {
		nh.vcpus[i] = cloneVCPU(ctx, v)
	}
	// The id-arena and its struct-of-arrays mirror: hot is plain values, a
	// slice copy suffices; byID remaps through the memo (holes stay nil).
	nh.hot = append([]VCPUHot(nil), h.hot...)
	nh.byID = make([]*VCPU, len(h.byID))
	for i, v := range h.byID {
		nh.byID[i] = cloneVCPU(ctx, v)
	}
	nh.sched = h.sched.ForkHandler(ctx).(HostScheduler)
	nh.slots, _ = nh.sched.(SlotWatcher)
	return nh
}

// CloneVM deep-copies vm (and its VCPUs and guest driver) through ctx.
// Guest drivers normally get cloned while the host walks its VM list, but a
// driver can outlive its VM (e.g. after Shutdown removed it from the host);
// its ForkHandler uses this to pull the detached VM through the same memo.
func CloneVM(ctx *clone.Ctx, vm *VM) *VM { return cloneVM(ctx, vm) }

// cloneVM deep-copies a VM, its VCPUs, and its guest driver.
func cloneVM(ctx *clone.Ctx, vm *VM) *VM {
	if vm == nil {
		return nil
	}
	if n, ok := ctx.Lookup(vm); ok {
		return n.(*VM)
	}
	nvm := &VM{ID: vm.ID, Name: vm.Name, WorkingSetMiB: vm.WorkingSetMiB, host: clone.Get(ctx, vm.host)}
	ctx.Put(vm, nvm)
	nvm.VCPUs = make([]*VCPU, len(vm.VCPUs))
	for i, v := range vm.VCPUs {
		nvm.VCPUs[i] = cloneVCPU(ctx, v)
	}
	if vm.Guest != nil {
		nvm.Guest = vm.Guest.ForkDriver(ctx)
	}
	return nvm
}

// cloneVCPU deep-copies a VCPU. Scheduler-private and dispatch hot state
// live in flat arrays on the scheduler and Host respectively (cloned by
// their owners), so only the VCPU's own fields need remapping here.
func cloneVCPU(ctx *clone.Ctx, v *VCPU) *VCPU {
	if v == nil {
		return nil
	}
	if n, ok := ctx.Lookup(v); ok {
		return n.(*VCPU)
	}
	nv := &VCPU{}
	*nv = *v
	ctx.Put(v, nv)
	nv.VM = cloneVM(ctx, v.VM)
	nv.host = clone.Get(ctx, v.host)
	nv.curJob = task.CloneJob(ctx, v.curJob)
	return nv
}
