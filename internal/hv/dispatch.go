package hv

import (
	"fmt"

	"rtvirt/internal/eventq"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/trace"
)

// eventRef aliases the event handle type so vcpu.go stays import-light.
type eventRef = eventq.Handle

// advance applies elapsed time on PCPU p up to now: overhead first, then
// job execution on the dispatched VCPU. Completion is detected here; the
// follow-up (picking the next job) happens in refresh/dispatch.
func (h *Host) advance(p *PCPU, now simtime.Time) {
	if now < p.lastAdvance {
		panic(fmt.Sprintf("hv: advance backwards on %v (%v < %v)", p, now, p.lastAdvance))
	}
	if now == p.lastAdvance {
		return
	}
	start := p.lastAdvance
	p.lastAdvance = now

	// Overhead window [start, min(overheadUntil, now)).
	if p.overheadUntil > start {
		ovEnd := simtime.Min(p.overheadUntil, now)
		p.OverheadTime += ovEnd.Sub(start)
		start = ovEnd
	}
	if start >= now {
		return
	}
	run := now.Sub(start)
	v := p.cur
	if v == nil {
		p.IdleTime += run
		return
	}
	j := v.curJob
	if j == nil {
		// Dispatched but between jobs (e.g. completion processed, pick
		// pending). Counts as idle-in-guest.
		p.IdleTime += run
		return
	}
	if run > j.Remaining {
		panic(fmt.Sprintf("hv: %v overran job by %v (events must be exact)", v, run-j.Remaining))
	}
	v.TotalRun += run
	p.BusyTime += run
	if j.Consume(run) {
		j.Complete(now)
		v.curJob = nil
		h.emitJobDone(v, j, now)
		v.VM.Guest.JobCompleted(v, j, now)
	}
}

// setEvent replaces the PCPU's pending kernel event. Nearly every kernel
// event lands here with a previous event still standing (the allocation
// end or projected job completion moved), so the common case is an
// in-place reschedule of the same pooled record rather than a
// cancel/insert round trip. The event is a typed payload —
// (host handler, evPCPUTimer, PCPU ID) — so it is plain data: the path
// allocates nothing and the pending timer survives a fork.
func (h *Host) setEvent(p *PCPU, at simtime.Time) {
	if at == simtime.Never {
		h.Sim.Cancel(p.ev)
		p.ev = eventRef{}
		return
	}
	if p.ev.Active() {
		p.ev = h.Sim.Reschedule(p.ev, at)
		return
	}
	p.ev = h.Sim.PostAt(at, sim.Payload{Handler: h.handlerID, Kind: evPCPUTimer, Owner: int32(p.ID)})
}

// refresh re-evaluates PCPU p at now: it advances accounting, then either
// re-dispatches (allocation expired), continues the current VCPU with its
// next job (job completed mid-allocation), or just re-arms the event.
func (h *Host) refresh(p *PCPU, now simtime.Time) {
	h.advance(p, now)
	if now >= p.allocEnd {
		h.dispatch(p, now)
		return
	}
	if p.cur != nil && p.cur.curJob == nil {
		// Job finished inside the allocation: let the guest pick the next
		// one without involving the host scheduler.
		h.continueVCPU(p, now)
		return
	}
	h.armEvent(p, now)
}

// continueVCPU asks the guest for the dispatched VCPU's next job within the
// current host allocation. If the guest has nothing, the VCPU blocks and
// the host scheduler decides what to run instead.
func (h *Host) continueVCPU(p *PCPU, now simtime.Time) {
	v := p.cur
	j := v.VM.Guest.PickJob(v, now)
	if j == nil {
		h.block(p, v, now)
		h.dispatch(p, now)
		return
	}
	if j != v.curJob {
		cost := h.Costs.GuestSwitch.Sample(h.costRNG)
		h.Overhead.GuestSwitches++
		h.Overhead.GuestSwitchTime += cost
		p.chargeOverhead(now, cost)
		h.emitGuestSwitch(v, j, now)
	}
	v.curJob = j
	h.armEvent(p, now)
}

// block takes the dispatched VCPU v off PCPU p because its guest has no
// job: v stops being runnable and the host scheduler is told it idles.
// The caller re-runs the scheduler on p.
func (h *Host) block(p *PCPU, v *VCPU, now simtime.Time) {
	hs := &h.hot[v.ID]
	hs.Runnable = false
	hs.PCPU = -1
	v.curJob = nil
	p.cur = nil
	h.emitDispatch(p, nil, now, 0)
	h.sched.VCPUIdle(v, now)
}

// armEvent schedules the next kernel event for p: the earlier of the host
// allocation end and the running job's projected completion.
func (h *Host) armEvent(p *PCPU, now simtime.Time) {
	at := p.allocEnd
	if p.cur != nil && p.cur.curJob != nil {
		execStart := simtime.Max(now, p.overheadUntil)
		done := execStart.Add(p.cur.curJob.Remaining)
		at = simtime.Min(at, done)
	}
	h.setEvent(p, at)
}

// dispatch runs the host scheduler on PCPU p until it produces a runnable
// decision, charging schedule/context-switch/migration costs.
func (h *Host) dispatch(p *PCPU, now simtime.Time) {
	for iter := 0; ; iter++ {
		if iter > len(h.vcpus)+4 {
			panic(fmt.Sprintf("hv: scheduler %q livelocked dispatching %v", h.sched.Name(), p))
		}
		dec := h.sched.Schedule(p, now)
		cost := h.ScheduleCost(dec.Work)
		h.Overhead.ScheduleCalls++
		h.Overhead.ScheduleTime += cost
		p.chargeOverhead(now, cost)
		if dec.VCPU != nil && dec.RunFor <= 0 {
			panic(fmt.Sprintf("hv: scheduler %q returned non-positive RunFor", h.sched.Name()))
		}
		if dec.VCPU != nil && !h.hot[dec.VCPU.ID].Runnable {
			panic(fmt.Sprintf("hv: scheduler %q picked blocked %v", h.sched.Name(), dec.VCPU))
		}

		old := p.cur
		if dec.VCPU != old {
			if old != nil {
				// A preemption proper: the outgoing VCPU still had work.
				// Capture the job before it is detached below.
				if h.bus.Active() && old.curJob != nil {
					h.bus.Emit(trace.Event{At: now, Kind: trace.Preempt, PCPU: p.ID,
						VM: old.VM.Name, VCPU: old.Index,
						Task: old.curJob.Task.Name, Arg: int64(old.curJob.Remaining)})
				}
				h.hot[old.ID].PCPU = -1
				old.curJob = nil // the unfinished job stays queued in the guest
				// If the preempted VCPU's queue is empty (its job finished
				// right at this instant), it must block now — otherwise a
				// stale runnable flag would make the guest skip the wake on
				// the next job release.
				if h.hot[old.ID].Runnable && old.VM.Guest.PickJob(old, now) == nil {
					h.hot[old.ID].Runnable = false
					h.sched.VCPUIdle(old, now)
				}
			}
			// Warm vs cold keys off the incoming VCPU's LastPCPU, read
			// before the dispatch below overwrites it.
			swCost := h.ctxSwitchCost(p, dec.VCPU)
			h.Overhead.CtxSwitches++
			h.Overhead.CtxSwitchTime += swCost
			p.chargeOverhead(now, swCost)
			if nv := dec.VCPU; nv != nil {
				hs := &h.hot[nv.ID]
				if hs.PCPU >= 0 {
					panic(fmt.Sprintf("hv: %v dispatched on two PCPUs", nv))
				}
				if hs.LastPCPU >= 0 && hs.LastPCPU != int32(p.ID) {
					migCost := h.migrationCost(nv)
					h.Overhead.Migrations++
					h.Overhead.MigrationTime += migCost
					p.chargeOverhead(now, migCost)
					// Emitted where the counter increments; Arg is the
					// source PCPU, Event.PCPU the destination.
					if h.bus.Active() {
						h.bus.Emit(trace.Event{At: now, Kind: trace.Migrate, PCPU: p.ID,
							VM: nv.VM.Name, VCPU: nv.Index, Arg: int64(hs.LastPCPU)})
					}
				}
				hs.PCPU = int32(p.ID)
				hs.LastPCPU = int32(p.ID)
			}
			p.cur = dec.VCPU
			h.emitDispatch(p, dec.VCPU, now, dec.RunFor)
		}
		p.allocEnd = now.Add(dec.RunFor)

		if p.cur == nil {
			h.setEvent(p, p.allocEnd)
			return
		}
		j := p.cur.VM.Guest.PickJob(p.cur, now)
		if j == nil {
			h.block(p, p.cur, now)
			continue
		}
		p.cur.curJob = j
		h.armEvent(p, now)
		return
	}
}

// Kick forces PCPU p to re-run its scheduler now. Host schedulers call it
// when a higher-priority VCPU appears. The standing kernel event is left
// pending: no simulator event can fire while dispatch runs, and every exit
// path of dispatch ends in setEvent, which reschedules it in place.
func (h *Host) Kick(p *PCPU, now simtime.Time) {
	h.advance(p, now)
	h.dispatch(p, now)
}

// VCPUWake marks v runnable (the guest released a job on an idle VCPU) and
// notifies the host scheduler, which may preempt a PCPU in response.
func (h *Host) VCPUWake(v *VCPU, now simtime.Time) {
	if h.hot[v.ID].Runnable {
		return
	}
	h.hot[v.ID].Runnable = true
	h.sched.VCPUWake(v, now)
}

// VCPURecheck re-evaluates which job a dispatched VCPU should run; the
// guest calls it when a newly released job preempts the current one under
// guest-level EDF. For undispatched VCPUs it is a no-op (the guest queue
// is consulted at next dispatch).
func (h *Host) VCPURecheck(v *VCPU, now simtime.Time) {
	pi := h.hot[v.ID].PCPU
	if pi < 0 {
		return
	}
	p := h.pcpus[pi]
	// As in Kick, the standing kernel event stays pending: every path below
	// ends in setEvent (via refresh or continueVCPU), which moves it in
	// place.
	h.advance(p, now)
	if p.cur != v { // completed & switched during advance
		h.refresh(p, now)
		return
	}
	h.continueVCPU(p, now)
}
