// Package rtxen implements the RT-Xen 2.0 host scheduler used as the
// paper's primary baseline (§4.1): global EDF over VCPU deferrable
// servers.
//
// Each VCPU is a server with a (budget, period) interface computed offline
// by compositional scheduling analysis (see internal/csa). The server's
// budget replenishes to full at every period boundary; its EDF priority is
// its current period's end. A deferrable server retains unused budget
// while its guest idles within the period (the budget is consumed only
// while the VCPU actually runs) and loses whatever is left at the
// replenishment boundary.
//
// RT-Xen 2.0 as published is quantum-driven: budget accounting and
// scheduling decisions happen every 1ms quantum on each PCPU, plus on wake
// and replenishment events, with a global runqueue kept sorted by deadline
// (an O(n) insertion the paper's overhead analysis charges it for). Both
// behaviours are modelled here because Table 6 measures exactly their
// cost.
package rtxen

import (
	"fmt"

	"rtvirt/internal/eventq"
	"rtvirt/internal/hv"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/trace"
)

// evReplenish is the per-server budget replenishment timer; Owner is the
// host-global VCPU ID.
const evReplenish uint16 = iota

// Quantum is RT-Xen 2.0's scheduling quantum: a server's decision expires
// after at most one quantum, and a background VCPU runs one quantum.
const Quantum = simtime.Millisecond

// Config tunes the scheduler.
type Config struct {
	// Deferrable selects the server flavour. True (RT-Xen 2.0's best
	// configuration per §4.1) retains unused budget while the guest idles;
	// false forfeits it (a polling server), which is the plain
	// uncoordinated two-level EDF of the paper's Figure 1.
	Deferrable bool
}

// DefaultConfig mirrors RT-Xen 2.0 defaults (gEDF + deferrable server).
func DefaultConfig() Config { return Config{Deferrable: true} }

// serverState is the per-VCPU deferrable-server state. All servers live in
// the Scheduler's flat srv array indexed by dense VCPU ID (struct-of-
// arrays), so replenish and the pickEDF scan touch contiguous memory
// instead of chasing a per-VCPU interface pointer.
type serverState struct {
	budget   simtime.Duration // remaining budget in the current period
	deadline simtime.Time     // end of the current period = EDF priority
	replEv   eventq.Handle
	// running tracks the PCPU charging this server, or -1.
	runningOn int32
	// active marks the slot as holding an admitted server; background
	// VCPUs and vacated IDs stay inactive.
	active bool
	lastAt simtime.Time
}

// Scheduler is the RT-Xen gEDF + deferrable-server host scheduler.
type Scheduler struct {
	cfg Config
	h   *hv.Host
	id  int32 // typed-event handler ID

	// srv holds every server's hot state, indexed by VCPU ID; srv[id] is
	// live iff .active. The host's id-arena (Host.ByID) resolves IDs back
	// to VCPUs for the cold fields (Res, VM identity).
	srv []serverState

	// runq is the global runqueue as a list of VCPU IDs sorted by
	// (deadline, ID); see runq.go. Its in-order scan is the Decision.Work
	// the published scheduler pays (what Table 6's schedule-time column
	// measures for RT-Xen).
	runq runq

	bgCursor int
	started  bool
}

// New creates an RT-Xen scheduler.
func New(cfg Config) *Scheduler {
	return &Scheduler{cfg: cfg}
}

// Name implements hv.HostScheduler.
func (s *Scheduler) Name() string { return "rt-xen-gedf-ds" }

// Attach implements hv.HostScheduler.
func (s *Scheduler) Attach(h *hv.Host) {
	s.h = h
	s.id = h.Sim.RegisterHandler(s)
}

// HandleSimEvent implements sim.Handler.
func (s *Scheduler) HandleSimEvent(now simtime.Time, ev sim.Payload) {
	switch ev.Kind {
	case evReplenish:
		// The server must still exist: RemoveVCPU cancels its timer.
		s.replenish(s.h.ByID(int(ev.Owner)), now)
	default:
		panic(fmt.Sprintf("rtxen: unknown event kind %d", ev.Kind))
	}
}

// Start implements hv.HostScheduler.
func (s *Scheduler) Start(now simtime.Time) {
	s.started = true
	// Walk a snapshot of the queue (armReplenish reorders it while we
	// iterate) in (deadline, ID) order, so the replenishment events are
	// installed in queue order — same-instant event FIFO order is part of
	// determinism.
	for _, id := range append([]int32(nil), s.runq.v...) {
		s.armReplenish(s.h.ByID(int(id)), now)
	}
}

// isServer reports whether v has an active server slot.
func (s *Scheduler) isServer(v *hv.VCPU) bool {
	return v.ID < len(s.srv) && s.srv[v.ID].active
}

// state returns v's server slot; the caller has established it is active.
func (s *Scheduler) state(v *hv.VCPU) *serverState { return &s.srv[v.ID] }

// AdmitVCPU implements hv.HostScheduler.
func (s *Scheduler) AdmitVCPU(v *hv.VCPU) error {
	if v.RT && v.Res.Budget > 0 {
		if !v.Res.Valid() {
			return fmt.Errorf("rtxen: %w: invalid server %v", hv.ErrAdmission, v.Res)
		}
		// The gEDF utilization bound, Σ utilization ≤ m. Sum in queue
		// order, (deadline, ID) — float addition order matters for
		// boundary-exact admissions.
		sum := v.Res.Bandwidth()
		for _, x := range s.runq.v {
			sum += s.h.ByID(int(x)).Res.Bandwidth()
		}
		if sum > float64(s.h.NumPCPUs())+1e-9 {
			return fmt.Errorf("rtxen: %w: utilization %0.3f exceeds %d CPUs",
				hv.ErrAdmission, sum, s.h.NumPCPUs())
		}
		for len(s.srv) <= v.ID {
			s.srv = append(s.srv, serverState{})
		}
		s.srv[v.ID] = serverState{budget: v.Res.Budget, runningOn: -1, active: true}
		s.runq.Push(s.srv, int32(v.ID))
		if s.started {
			s.armReplenish(v, s.h.Sim.Now())
		}
	}
	return nil
}

// RemoveVCPU implements hv.HostScheduler.
func (s *Scheduler) RemoveVCPU(v *hv.VCPU, now simtime.Time) {
	if s.isServer(v) {
		// Every active server is queued: AdmitVCPU pushes each one it
		// activates.
		s.runq.Remove(int32(v.ID))
		s.h.Sim.Cancel(s.state(v).replEv)
		s.srv[v.ID] = serverState{}
	}
}

// UpdateVCPU implements hv.HostScheduler: RT-Xen has no online interface
// changes (configuration is offline via CSA), but the kernel plumbing is
// supported for completeness.
func (s *Scheduler) UpdateVCPU(v *hv.VCPU, res hv.Reservation, now simtime.Time) error {
	if !res.Valid() {
		return fmt.Errorf("rtxen: %w: invalid server %v", hv.ErrAdmission, res)
	}
	v.Res = res
	if s.isServer(v) {
		if st := s.state(v); st.budget > res.Budget {
			st.budget = res.Budget
		}
	}
	return nil
}

// armReplenish starts the server's periodic budget replenishment.
func (s *Scheduler) armReplenish(v *hv.VCPU, now simtime.Time) {
	st := s.state(v)
	st.deadline = now.Add(v.Res.Period)
	s.runq.Fix(s.srv, int32(v.ID))
	st.replEv = s.h.Sim.PostAt(st.deadline, sim.Payload{Handler: s.id, Kind: evReplenish, Owner: int32(v.ID)})
}

func (s *Scheduler) replenish(v *hv.VCPU, now simtime.Time) {
	s.chargeIfRunning(v, now)
	st := s.state(v)
	st.budget = v.Res.Budget
	st.deadline = now.Add(v.Res.Period)
	if s.h.Tracing() {
		s.h.Emit(trace.Event{At: now, Kind: trace.Replenish, PCPU: -1,
			VM: v.VM.Name, VCPU: v.Index, Arg: int64(v.Res.Budget)})
	}
	s.runq.Fix(s.srv, int32(v.ID))
	st.replEv = s.h.Sim.PostAt(st.deadline, sim.Payload{Handler: s.id, Kind: evReplenish, Owner: int32(v.ID)})
	// A replenished server may now outrank a running one.
	s.preemptCheck(v, now)
}

// chargeIfRunning deducts consumed budget for a currently-running server.
func (s *Scheduler) chargeIfRunning(v *hv.VCPU, now simtime.Time) {
	st := s.state(v)
	if st.runningOn < 0 {
		return
	}
	elapsed := now.Sub(st.lastAt)
	if elapsed >= st.budget {
		if st.budget > 0 && s.h.Tracing() {
			// Arg carries the overdraw: time charged beyond the remaining
			// budget. The kernel's allocations never exceed the budget, so
			// anything non-zero is an accounting bug (check.BudgetOracle).
			s.h.Emit(trace.Event{At: now, Kind: trace.Deplete, PCPU: int(st.runningOn),
				VM: v.VM.Name, VCPU: v.Index, Arg: int64(elapsed - st.budget)})
		}
		st.budget = 0
	} else {
		st.budget -= elapsed
	}
	st.lastAt = now
}

// preemptCheck kicks the PCPU running the lowest-priority work if v should
// run now and is not running.
func (s *Scheduler) preemptCheck(v *hv.VCPU, now simtime.Time) {
	if !s.started {
		return
	}
	st := s.state(v)
	hot := s.h.Hot()
	hs := hot[v.ID]
	if !hs.Runnable || st.budget <= 0 || hs.PCPU >= 0 {
		return
	}
	// Find the PCPU with the latest-deadline current occupant (or idle).
	var target *hv.PCPU
	var worst simtime.Time = -1
	for _, p := range s.h.PCPUs() {
		cur := p.Current()
		if cur == nil {
			target = p
			break
		}
		if !s.isServer(cur) {
			// Background occupant always yields.
			target = p
			break
		}
		if d := s.srv[cur.ID].deadline; d > worst {
			worst = d
			target = p
		}
	}
	if target == nil {
		return
	}
	if cur := target.Current(); cur != nil {
		if s.isServer(cur) && s.srv[cur.ID].deadline <= st.deadline {
			return // no PCPU runs lower-priority work
		}
	}
	s.h.Kick(target, now)
}

// VCPUWake implements hv.HostScheduler.
func (s *Scheduler) VCPUWake(v *hv.VCPU, now simtime.Time) {
	if s.isServer(v) {
		s.preemptCheck(v, now)
		return
	}
	// Background VCPU: grab an idle PCPU if any.
	for _, p := range s.h.PCPUs() {
		if p.Current() == nil {
			s.h.Kick(p, now)
			return
		}
	}
}

// VCPUIdle implements hv.HostScheduler. A deferrable server retains its
// remaining budget; a polling server forfeits it until the next
// replenishment. The charge is settled here because the kernel
// undispatches the VCPU before the next Schedule call.
func (s *Scheduler) VCPUIdle(v *hv.VCPU, now simtime.Time) {
	if s.isServer(v) {
		s.chargeIfRunning(v, now)
		st := s.state(v)
		st.runningOn = -1
		if !s.cfg.Deferrable {
			st.budget = 0
		}
	}
}

// Schedule implements hv.HostScheduler: pick the earliest-deadline
// runnable server with budget; quantum-driven accounting.
func (s *Scheduler) Schedule(p *hv.PCPU, now simtime.Time) hv.Decision {
	// Settle the charge of whatever this PCPU was running.
	if cur := p.Current(); cur != nil {
		if s.isServer(cur) {
			s.chargeIfRunning(cur, now)
			s.state(cur).runningOn = -1
		}
	}
	// Work is the published sorted-queue scan: the pick's rank, or the
	// whole queue when nothing is eligible.
	id, work := s.runq.pickEDF(s.srv, s.h.Hot(), int32(p.ID))
	if id >= 0 {
		st := &s.srv[id]
		st.runningOn = int32(p.ID)
		st.lastAt = now
		return hv.Decision{VCPU: s.h.ByID(int(id)), RunFor: simtime.MinDur(st.budget, Quantum), Work: work}
	}
	// Background fill: non-RT VCPUs and zero-budget RT VCPUs.
	if bg := s.pickBackground(p, &work); bg != nil {
		return hv.Decision{VCPU: bg, RunFor: Quantum, Work: work}
	}
	// Idle until the next quantum; wakes and replenishments kick earlier.
	return hv.Decision{VCPU: nil, RunFor: simtime.Infinite, Work: work}
}

// ServerState reports v's live server accounting as of now — remaining
// budget (settling any in-progress charge without mutating it) and the
// current EDF deadline. ok is false for background (non-server) VCPUs.
// Read-only; used by the invariant oracles in internal/check.
func (s *Scheduler) ServerState(v *hv.VCPU, now simtime.Time) (budget simtime.Duration, deadline simtime.Time, ok bool) {
	if !s.isServer(v) {
		return 0, 0, false
	}
	st := s.state(v)
	b := st.budget
	if st.runningOn >= 0 {
		if e := now.Sub(st.lastAt); e >= b {
			b = 0
		} else {
			b -= e
		}
	}
	return b, st.deadline, true
}

// AdmittedBandwidth sums the bandwidth of every admitted server.
func (s *Scheduler) AdmittedBandwidth() float64 {
	sum := 0.0
	for _, id := range s.runq.v {
		sum += s.h.ByID(int(id)).Res.Bandwidth()
	}
	return sum
}

// Capacity is the gEDF admission bound in CPUs (Σ utilization ≤ m).
func (s *Scheduler) Capacity() float64 { return float64(s.h.NumPCPUs()) }

func (s *Scheduler) pickBackground(p *hv.PCPU, work *int) *hv.VCPU {
	all := s.h.VCPUs()
	n := len(all)
	if n == 0 {
		return nil
	}
	if len(s.runq.v) == n {
		// Every host VCPU is a queued server (the queue holds only host
		// VCPUs), so the scan would examine and skip all n: charge it
		// without walking.
		*work += n
		return nil
	}
	hot := s.h.Hot()
	pid := int32(p.ID)
	// Removals can leave the cursor at or past n: reduce it once, then
	// wrap each step with a compare.
	j := s.bgCursor % n
	for i := 0; i < n; i++ {
		v := all[j]
		if j++; j == n {
			j = 0
		}
		*work++
		if s.isServer(v) {
			continue
		}
		if hs := hot[v.ID]; hs.Runnable && (hs.PCPU < 0 || hs.PCPU == pid) {
			s.bgCursor = j
			return v
		}
	}
	return nil
}
