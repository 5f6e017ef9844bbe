package hv

import (
	"fmt"

	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
	"rtvirt/internal/trace"
)

// VM is a guest virtual machine: a named collection of VCPUs plus the
// guest OS driver that schedules processes onto them.
type VM struct {
	ID    int
	Name  string
	Guest GuestDriver
	VCPUs []*VCPU

	// WorkingSetMiB is the VM's declared working-set size. It scales the
	// cross-PCPU migration cost via CostModel.MigrationPerMiB; zero means
	// migrations cost only the fixed Migration term.
	WorkingSetMiB int

	host *Host
}

// Host returns the VMM hosting this VM.
func (vm *VM) Host() *Host { return vm.host }

// AddVCPU hot-plugs a new virtual CPU into the VM. rt marks it as
// participating in real-time scheduling; res is its initial reservation
// (may be zero for RTVirt, whose reservations arrive via hypercall); weight
// is used by proportional-share schedulers such as Credit.
func (vm *VM) AddVCPU(rt bool, res Reservation, weight int) (*VCPU, error) {
	return vm.host.addVCPU(vm, rt, res, weight)
}

// TotalRun sums the execution time of all the VM's VCPUs. Call Host.Sync
// first for an up-to-the-instant value.
func (vm *VM) TotalRun() simtime.Duration {
	var total simtime.Duration
	for _, v := range vm.VCPUs {
		total += v.TotalRun
	}
	return total
}

// String implements fmt.Stringer.
func (vm *VM) String() string { return fmt.Sprintf("vm%d(%s)", vm.ID, vm.Name) }

// VCPU is a virtual CPU: the entity the host scheduler dispatches onto
// physical CPUs.
type VCPU struct {
	ID    int // host-global
	VM    *VM
	Index int // within the VM

	// RT marks the VCPU as real-time; non-RT VCPUs receive leftover
	// bandwidth only.
	RT bool
	// Res is the VCPU's host-level reservation, set at creation or via the
	// sched_rtvirt() hypercall.
	Res Reservation
	// Weight drives proportional-share schedulers (Credit).
	Weight int
	// NoMigrate pins the VCPU to a single PCPU per scheduling horizon for
	// cache locality: DP-WRAP excludes it from the m−1 VCPUs it may split
	// across processors (§6).
	NoMigrate bool
	// DeadlineSlot is the shared-memory word holding the next earliest
	// deadline of the RTAs on this VCPU, written by the guest scheduler and
	// read by the host DP-WRAP scheduler (§3.3).
	DeadlineSlot simtime.Time
	// SporadicFloor is the second shared-memory word: the minimum period of
	// any sporadic RTA on the VCPU. The host treats the VCPU as if such a
	// task could be activated at any boundary (the worst-case rule of
	// §3.3), i.e. the next global deadline is at most SporadicFloor away.
	// Zero means the VCPU hosts no sporadic RTAs.
	SporadicFloor simtime.Duration

	// TotalRun is the accumulated job execution time on this VCPU.
	TotalRun simtime.Duration

	host   *Host
	curJob *task.Job
}

// VCPUHot is the dispatch path's per-VCPU hot state, held in a flat array
// on the Host indexed by dense VCPU ID (Host.Hot) rather than on the VCPU
// struct, so dispatch, pickEDF-style scans, and replenish walk contiguous
// memory instead of chasing per-VCPU pointers. PCPU and LastPCPU are PCPU
// IDs; -1 means none.
type VCPUHot struct {
	Runnable bool
	PCPU     int32
	LastPCPU int32
}

// Runnable reports whether the VCPU has runnable guest work.
func (v *VCPU) Runnable() bool { return v.host.hot[v.ID].Runnable }

// OnPCPU returns the PCPU the VCPU is currently dispatched on, or nil.
func (v *VCPU) OnPCPU() *PCPU {
	if i := v.host.hot[v.ID].PCPU; i >= 0 {
		return v.host.pcpus[i]
	}
	return nil
}

// CurrentJob returns the job executing on the VCPU right now, or nil.
func (v *VCPU) CurrentJob() *task.Job { return v.curJob }

// String implements fmt.Stringer.
func (v *VCPU) String() string {
	return fmt.Sprintf("%s.vcpu%d", v.VM.Name, v.Index)
}

// PCPU is one physical CPU of the host.
type PCPU struct {
	ID   int
	host *Host

	cur           *VCPU
	allocEnd      simtime.Time
	overheadUntil simtime.Time
	lastAdvance   simtime.Time
	ev            eventRef

	// BusyTime is job execution time; OverheadTime is scheduler/context
	// switch/hypercall time; IdleTime is the remainder.
	BusyTime     simtime.Duration
	OverheadTime simtime.Duration
	IdleTime     simtime.Duration
}

// Current returns the VCPU dispatched on the PCPU, or nil when idle.
func (p *PCPU) Current() *VCPU { return p.cur }

// AllocEnd reports when the current host allocation expires.
func (p *PCPU) AllocEnd() simtime.Time { return p.allocEnd }

// chargeOverhead pushes the PCPU's overhead horizon forward by cost
// starting no earlier than now, and accounts it when it elapses via
// advance. It does not touch the host-level meters; callers do that.
func (p *PCPU) chargeOverhead(now simtime.Time, cost simtime.Duration) {
	if cost <= 0 {
		return
	}
	base := simtime.Max(p.overheadUntil, now)
	p.overheadUntil = base.Add(cost)
}

// String implements fmt.Stringer.
func (p *PCPU) String() string { return fmt.Sprintf("pcpu%d", p.ID) }

// emitDispatch reports that p switched to v (nil = idle); grant is the
// host allocation length (0 when the switch is an undispatch). Like the
// other emitters it is an inlinable guard on the bus, with the event
// built out of line, so a run without sinks pays one length check.
func (h *Host) emitDispatch(p *PCPU, v *VCPU, now simtime.Time, grant simtime.Duration) {
	if h.bus.Active() {
		h.traceDispatch(p, v, now, grant)
	}
}

func (h *Host) traceDispatch(p *PCPU, v *VCPU, now simtime.Time, grant simtime.Duration) {
	ev := trace.Event{At: now, Kind: trace.Dispatch, PCPU: p.ID, Arg: int64(grant)}
	if v != nil {
		ev.VM = v.VM.Name
		ev.VCPU = v.Index
	}
	h.bus.Emit(ev)
}

// emitJobDone reports a job completion on v as JobDone (Arg = response
// time) or JobMiss (Arg = lateness).
func (h *Host) emitJobDone(v *VCPU, j *task.Job, now simtime.Time) {
	if h.bus.Active() {
		h.traceJobDone(v, j, now)
	}
}

func (h *Host) traceJobDone(v *VCPU, j *task.Job, now simtime.Time) {
	kind := trace.JobDone
	arg := int64(now.Sub(j.Release))
	if j.Deadline != simtime.Never && j.Finish > j.Deadline {
		kind = trace.JobMiss
		arg = int64(j.Finish.Sub(j.Deadline))
	}
	pcpu := int(h.hot[v.ID].PCPU)
	h.bus.Emit(trace.Event{At: now, Kind: kind, PCPU: pcpu,
		VM: v.VM.Name, VCPU: v.Index, Task: j.Task.Name, Arg: arg})
}

// emitGuestSwitch reports a guest-level process switch onto v's next job.
func (h *Host) emitGuestSwitch(v *VCPU, j *task.Job, now simtime.Time) {
	if h.bus.Active() {
		h.traceGuestSwitch(v, j, now)
	}
}

func (h *Host) traceGuestSwitch(v *VCPU, j *task.Job, now simtime.Time) {
	pcpu := int(h.hot[v.ID].PCPU)
	h.bus.Emit(trace.Event{At: now, Kind: trace.GuestSwitch, PCPU: pcpu,
		VM: v.VM.Name, VCPU: v.Index, Task: j.Task.Name})
}
