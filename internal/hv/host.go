package hv

import (
	"fmt"

	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/trace"
)

// Host is the virtual machine monitor: it owns the physical CPUs, the VMs,
// and one host scheduler, and drives all dispatching.
type Host struct {
	Sim   *sim.Simulator
	Costs CostModel

	sched HostScheduler
	// slots is sched as a SlotWatcher, or nil. It is resolved once: a
	// type assertion on every shared-memory write would reach the
	// runtime's assertion cache, which fills at random moments and
	// allocates when it does.
	slots SlotWatcher
	pcpus []*PCPU
	vms   []*VM
	vcpus []*VCPU

	// byID is the VCPU id-arena: byID[id] is the admitted VCPU with that
	// dense ID, nil after removal (IDs are never reused once admitted). hot
	// is the struct-of-arrays mirror of the dispatch path's per-VCPU state;
	// see VCPUHot. Both are indexed by VCPU.ID and grow monotonically.
	byID []*VCPU
	hot  []VCPUHot

	// Overhead accumulates scheduler overhead (Table 6 measurements).
	Overhead Overhead

	started   bool
	startTime simtime.Time
	nextVCPU  int
	// costRNG is the dedicated platform-cost sampling stream: derived from
	// (simulator seed, handler ID) without consuming a main-stream draw,
	// cloned by ForkHandler. Constant cost terms never touch it, so the
	// default all-constant model leaves it pristine.
	costRNG *sim.RNG
	// handlerID is the host's slot in the simulator's typed-event dispatch
	// table; the per-PCPU kernel timers are payload events addressed to it.
	handlerID int32
	// bus fans telemetry events out to attached sinks. The zero value is
	// disabled and free: Emit on an empty bus does nothing and allocates
	// nothing, so emission sites stay wired in unconditionally.
	bus trace.Bus
}

// NewHost creates a host with m PCPUs driven by sched.
func NewHost(s *sim.Simulator, m int, sched HostScheduler, costs CostModel) *Host {
	if m <= 0 {
		panic("hv: host needs at least one PCPU")
	}
	h := &Host{Sim: s, Costs: costs, sched: sched}
	h.slots, _ = sched.(SlotWatcher)
	h.handlerID = s.RegisterHandler(h)
	h.costRNG = s.DerivedRNG(uint64(h.handlerID))
	for i := 0; i < m; i++ {
		h.pcpus = append(h.pcpus, &PCPU{ID: i, host: h})
	}
	sched.Attach(h)
	return h
}

// Host event kinds.
const (
	// evPCPUTimer is the one kernel event per PCPU: the host allocation
	// expired or the running job's projected completion arrived. Owner is
	// the PCPU ID.
	evPCPUTimer uint16 = iota
)

// HandleSimEvent implements sim.Handler.
func (h *Host) HandleSimEvent(now simtime.Time, ev sim.Payload) {
	switch ev.Kind {
	case evPCPUTimer:
		p := h.pcpus[ev.Owner]
		p.ev = eventRef{}
		h.refresh(p, now)
	default:
		panic(fmt.Sprintf("hv: unknown event kind %d", ev.Kind))
	}
}

// Scheduler returns the attached host scheduler.
func (h *Host) Scheduler() HostScheduler { return h.sched }

// Bus returns the host's telemetry bus, e.g. to Reset it between phases.
func (h *Host) Bus() *trace.Bus { return &h.bus }

// TraceTo attaches telemetry sinks; every scheduling event the kernel,
// the host scheduler, and the guest layer emit is delivered to each sink
// in attachment order.
func (h *Host) TraceTo(sinks ...trace.Sink) { h.bus.Attach(sinks...) }

// Tracing reports whether any telemetry sink is attached. Emission sites
// that must assemble an Event guard on it so the disabled path is free.
func (h *Host) Tracing() bool { return h.bus.Active() }

// Emit delivers a telemetry event to the attached sinks. Schedulers and
// the guest layer use it to report their own decisions (replenish,
// deplete, admission verdicts) onto the host's bus.
func (h *Host) Emit(ev trace.Event) { h.bus.Emit(ev) }

// PCPUs returns the host's physical CPUs.
func (h *Host) PCPUs() []*PCPU { return h.pcpus }

// NumPCPUs reports the number of physical CPUs.
func (h *Host) NumPCPUs() int { return len(h.pcpus) }

// VMs returns the hosted virtual machines.
func (h *Host) VMs() []*VM { return h.vms }

// VCPUs returns every VCPU on the host in creation order.
func (h *Host) VCPUs() []*VCPU { return h.vcpus }

// ByID returns the VCPU with the given dense ID, or nil if it was removed.
// IDs are assigned at admission and never reused, so the arena only grows.
func (h *Host) ByID(id int) *VCPU { return h.byID[id] }

// Hot exposes the struct-of-arrays per-VCPU dispatch state, indexed by
// VCPU.ID. Host schedulers read it on their hot paths (eligibility scans,
// replenish walks) instead of calling Runnable/OnPCPU per VCPU; treat it
// as read-only — only the dispatch path writes it.
func (h *Host) Hot() []VCPUHot { return h.hot }

// NumIDs reports the size of the VCPU id space (high-water mark of
// assigned IDs + 1); Hot and ByID are valid for indices below it.
func (h *Host) NumIDs() int { return len(h.byID) }

// NewVM creates a VM whose scheduling behaviour is defined by guest.
func (h *Host) NewVM(name string, guest GuestDriver) *VM {
	vm := &VM{ID: len(h.vms), Name: name, Guest: guest, host: h}
	h.vms = append(h.vms, vm)
	return vm
}

// Start installs the scheduler's events and dispatches every PCPU. Call it
// after creating the initial VMs and before running the simulator.
func (h *Host) Start() {
	if h.started {
		panic("hv: Host.Start called twice")
	}
	h.started = true
	h.startTime = h.Sim.Now()
	h.sched.Start(h.Sim.Now())
	for _, p := range h.pcpus {
		p.lastAdvance = h.Sim.Now()
		h.dispatch(p, h.Sim.Now())
	}
}

// StartTime reports when Start was called.
func (h *Host) StartTime() simtime.Time { return h.startTime }

// addVCPU registers a new VCPU with the host and its scheduler. The arena
// slot (byID + hot entry) is staked out before admission so the scheduler
// can index by ID while deciding; a rejected VCPU's slot is vacated and its
// ID reused by the next attempt (nextVCPU only advances on success).
func (h *Host) addVCPU(vm *VM, rt bool, res Reservation, weight int) (*VCPU, error) {
	v := &VCPU{
		ID:           h.nextVCPU,
		VM:           vm,
		Index:        len(vm.VCPUs),
		RT:           rt,
		Res:          res,
		Weight:       weight,
		DeadlineSlot: simtime.Never,
		host:         h,
	}
	for len(h.byID) <= v.ID {
		h.byID = append(h.byID, nil)
		h.hot = append(h.hot, VCPUHot{PCPU: -1, LastPCPU: -1})
	}
	h.byID[v.ID] = v
	h.hot[v.ID] = VCPUHot{PCPU: -1, LastPCPU: -1}
	if err := h.sched.AdmitVCPU(v); err != nil {
		h.byID[v.ID] = nil
		if h.bus.Active() {
			h.bus.Emit(trace.Event{At: h.Sim.Now(), Kind: trace.Reject, PCPU: -1,
				VM: vm.Name, VCPU: v.Index, Arg: int64(res.Budget)})
		}
		return nil, err
	}
	if h.bus.Active() {
		h.bus.Emit(trace.Event{At: h.Sim.Now(), Kind: trace.Admit, PCPU: -1,
			VM: vm.Name, VCPU: v.Index, Arg: int64(res.Budget)})
	}
	h.nextVCPU++
	vm.VCPUs = append(vm.VCPUs, v)
	h.vcpus = append(h.vcpus, v)
	return v, nil
}

// SchedRTVirt is the sched_rtvirt() hypercall: the guest requests a change
// to one or two VCPUs' reservations. It charges the hypercall cost and
// forwards to the host scheduler's cross-layer handler.
func (h *Host) SchedRTVirt(hc Hypercall) error {
	now := h.Sim.Now()
	cost := h.Costs.HypercallCost(hc.Flag).Sample(h.costRNG)
	h.Overhead.Hypercalls++
	h.Overhead.HypercallTime += cost
	// One event per call, emitted where the counter increments so trace
	// counts and the Overhead meter always agree.
	if h.bus.Active() {
		var kind trace.Kind
		switch hc.Flag {
		case IncBW:
			kind = trace.HypercallIncBW
		case DecBW:
			kind = trace.HypercallDecBW
		default:
			kind = trace.HypercallIncDecBW
		}
		ev := trace.Event{At: now, Kind: kind, PCPU: -1, Arg: int64(hc.Res.Budget)}
		if hc.VCPU != nil {
			ev.VM = hc.VCPU.VM.Name
			ev.VCPU = hc.VCPU.Index
			if i := h.hot[hc.VCPU.ID].PCPU; i >= 0 {
				ev.PCPU = int(i)
			}
		}
		h.bus.Emit(ev)
	}
	// The hypercall executes in the calling guest's kernel: if that VCPU is
	// on a PCPU right now, the cost eats into its CPU time.
	if hc.VCPU != nil {
		if i := h.hot[hc.VCPU.ID].PCPU; i >= 0 {
			p := h.pcpus[i]
			h.advance(p, now)
			p.chargeOverhead(now, cost)
		}
	}
	cl, ok := h.sched.(CrossLayer)
	if !ok {
		return ErrNoCrossLayer
	}
	return cl.HandleHypercall(hc, now)
}

// WriteDeadlineSlot is the guest side of the shared-memory page: it stores
// VCPU v's next earliest deadline where the host scheduler can read it.
// The real system uses one 8-byte word per VCPU with no synchronization,
// relying on cache coherence (§3.3); here it is a direct field write plus
// a counter so the communication volume can be reported.
func (h *Host) WriteDeadlineSlot(v *VCPU, deadline simtime.Time) {
	v.DeadlineSlot = deadline
	h.Overhead.ShmWrites++
	if h.slots != nil {
		h.slots.SlotUpdated(v, h.Sim.Now())
	}
}

// WriteSporadicFloor updates the second shared-memory word: the minimum
// period across the VCPU's sporadic RTAs (0 = none). See VCPU.SporadicFloor.
func (h *Host) WriteSporadicFloor(v *VCPU, floor simtime.Duration) {
	v.SporadicFloor = floor
	h.Overhead.ShmWrites++
	if h.slots != nil {
		h.slots.SlotUpdated(v, h.Sim.Now())
	}
}

// ChargeScheduleWork accounts scheduler work performed outside a
// Schedule() callback — e.g. DP-WRAP's global-deadline computation, which
// runs on one PCPU at every global slice boundary (§3.3). The cost is
// added to the schedule-time meter and delays execution on p.
func (h *Host) ChargeScheduleWork(p *PCPU, cost simtime.Duration) {
	if cost <= 0 {
		return
	}
	now := h.Sim.Now()
	h.Overhead.ScheduleTime += cost
	h.advance(p, now)
	p.chargeOverhead(now, cost)
}

// RemoveVM tears a VM down: every VCPU is undispatched, withdrawn from
// the scheduler and dropped from the host's lists. The guest should have
// unregistered its tasks first (abandoning queued jobs); any job still
// on-CPU is charged up to now and then discarded.
func (h *Host) RemoveVM(vm *VM) {
	now := h.Sim.Now()
	var orphaned []*PCPU
	for _, v := range vm.VCPUs {
		if i := h.hot[v.ID].PCPU; i >= 0 {
			p := h.pcpus[i]
			h.Sim.Cancel(p.ev)
			p.ev = eventRef{}
			h.advance(p, now)
			if p.cur == v {
				if j := v.curJob; j != nil {
					j.Abandon(now)
				}
				v.curJob = nil
				h.hot[v.ID].PCPU = -1
				p.cur = nil
				h.emitDispatch(p, nil, now, 0)
				orphaned = append(orphaned, p)
			}
		}
		h.hot[v.ID].Runnable = false
		h.sched.RemoveVCPU(v, now)
		h.byID[v.ID] = nil
		for i, x := range h.vcpus {
			if x == v {
				h.vcpus = append(h.vcpus[:i], h.vcpus[i+1:]...)
				break
			}
		}
	}
	for i, x := range h.vms {
		if x == vm {
			h.vms = append(h.vms[:i], h.vms[i+1:]...)
			break
		}
	}
	// Re-dispatch PCPUs that lost their occupant (schedulers that replan
	// on removal have already done this; an extra kick is harmless).
	if h.started {
		for _, p := range orphaned {
			if p.cur == nil && !p.ev.Active() {
				h.Kick(p, now)
			}
		}
	}
}

// OverheadPercent reports total scheduler overhead as a percentage of the
// host's total CPU time since Start.
func (h *Host) OverheadPercent() float64 {
	span := h.Sim.Now().Sub(h.startTime)
	return h.Overhead.Percent(span, len(h.pcpus))
}

// Sync brings every PCPU's execution accounting up to the current instant.
// Call before reading BusyTime/TotalRun style counters mid-run.
func (h *Host) Sync() {
	now := h.Sim.Now()
	for _, p := range h.pcpus {
		h.advance(p, now)
		// A job may have completed exactly at now; give the guest a chance
		// to queue the next one.
		if p.cur != nil && p.cur.curJob == nil {
			h.refresh(p, now)
		}
	}
}

func (h *Host) String() string {
	return fmt.Sprintf("host(%s, %d pcpus, %d vms)", h.sched.Name(), len(h.pcpus), len(h.vms))
}
