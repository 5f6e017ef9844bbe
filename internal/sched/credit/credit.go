// Package credit implements Xen's default Credit scheduler, used as a
// baseline in §4.4 of the RTVirt paper.
//
// Credit is a proportional-share scheduler: every accounting period each
// VCPU receives credits in proportion to its weight; credits burn while
// the VCPU runs. VCPUs with positive credits are UNDER, others are OVER;
// UNDER VCPUs are served round-robin ahead of OVER ones. A VCPU waking
// from idle is temporarily BOOSTed above everything — this is why Credit
// shows a low *average* latency for memcached in the paper while its tail
// collapses once the VM exhausts credits behind CPU-bound neighbours.
//
// The paper's memcached experiments tune two knobs that are faithfully
// modelled: the global timeslice (set to 1ms) and the ratelimit (500µs),
// plus the periodic scheduler tick whose processing cost perturbs
// latencies even on a dedicated CPU (Table 4).
package credit

import (
	"fmt"

	"rtvirt/internal/hv"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/trace"
)

// Typed kernel-event kinds dispatched to the scheduler's HandleSimEvent.
const (
	// evAccount is the periodic credit refill; host-wide, Owner unused.
	evAccount uint16 = iota
	// evTick is the periodic deboost/burn tick; host-wide, Owner unused.
	evTick
	// evRatelimitKick retries a boost preemption once the occupant's
	// minimum run has elapsed. Owner is the waker's host-global VCPU ID,
	// Arg the target PCPU ID.
	evRatelimitKick
)

// Priority bands, highest first.
const (
	prioBoost = iota
	prioUnder
	prioOver
)

// Stock Xen Credit timing.
const (
	// AccountPeriod is the credit refill interval (Xen: 30ms).
	AccountPeriod = 30 * simtime.Millisecond
	// TickEvery is the scheduler tick used for burn accounting and
	// deboosting (Xen: 10ms).
	TickEvery = 10 * simtime.Millisecond
)

// Config tunes the scheduler.
type Config struct {
	// Timeslice is the maximum uninterrupted run per dispatch (Xen
	// default 30ms; 1ms in the paper's memcached experiment).
	Timeslice simtime.Duration
	// Ratelimit is the minimum run before preemption (Xen default 1ms;
	// 500µs in the paper's memcached experiment).
	Ratelimit simtime.Duration
	// SampledAccounting switches credit burn from exact settle-on-switch
	// to tick sampling: whoever occupies a PCPU when the tick fires is
	// debited one full TickEvery, and runs between ticks are never
	// charged. This is the pre-fix Xen behaviour Zhou et al. exploit
	// ("Scheduler Vulnerabilities and Attacks in Cloud Computing"): a VCPU
	// that sleeps across every tick obtains CPU for free. It exists as the
	// deliberately-naive double for the attacks experiment's negative
	// rows, whose obtained CPU a trace.Summary measures — never enable it
	// elsewhere.
	SampledAccounting bool
}

// DefaultConfig returns stock Xen Credit parameters. The tick cost is no
// longer set here: it defaults through hv.DefaultCosts().Tick (20µs), so
// all platform overheads live in one place.
func DefaultConfig() Config {
	return Config{
		Timeslice: simtime.Millis(30),
		Ratelimit: simtime.Millis(1),
	}
}

// vcpuState is the per-VCPU credit accounting. All accounts live in the
// Scheduler's flat st array indexed by dense VCPU ID, so the round-robin
// scan in Schedule walks two contiguous arrays (the ID ring and st)
// instead of dereferencing a per-VCPU interface pointer.
type vcpuState struct {
	credits   simtime.Duration // signed: negative = OVER
	boost     bool
	active    bool // slot holds an admitted VCPU
	runningOn int32
	lastAt    simtime.Time
	// cap, when positive, is the VCPU's maximum CPU share (Xen's sched
	// credit "cap" parameter): once the period's capped credits are burnt
	// the VCPU is parked until the next accounting refill, even if the
	// host is otherwise idle.
	cap float64
	// charged is the cumulative CPU time this scheduler has debited the
	// VCPU for (exact: every settled run; sampled: one TickEvery per tick
	// it was caught occupying a PCPU). The attacks experiment compares it
	// against the CPU time actually obtained, a trace.Summary's Run.
	charged simtime.Duration
}

// Scheduler is the Credit scheduler.
type Scheduler struct {
	cfg Config
	h   *hv.Host
	id  int32

	// vcpus is the round-robin ring as VCPU IDs in admission order; st is
	// the struct-of-arrays credit state indexed by VCPU ID. The host's
	// id-arena (Host.ByID) resolves IDs back to VCPUs for cold fields.
	vcpus  []int32
	st     []vcpuState
	cursor int

	started bool
}

// New creates a Credit scheduler.
func New(cfg Config) *Scheduler {
	d := DefaultConfig()
	if cfg.Timeslice <= 0 {
		cfg.Timeslice = d.Timeslice
	}
	if cfg.Ratelimit <= 0 {
		cfg.Ratelimit = d.Ratelimit
	}
	return &Scheduler{cfg: cfg}
}

// Name implements hv.HostScheduler.
func (s *Scheduler) Name() string { return "xen-credit" }

// Attach implements hv.HostScheduler.
func (s *Scheduler) Attach(h *hv.Host) {
	s.h = h
	s.id = h.Sim.RegisterHandler(s)
}

// Start implements hv.HostScheduler.
func (s *Scheduler) Start(now simtime.Time) {
	s.started = true
	s.h.Sim.PostAt(now.Add(AccountPeriod), sim.Payload{Handler: s.id, Kind: evAccount})
	s.h.Sim.PostAt(now.Add(TickEvery), sim.Payload{Handler: s.id, Kind: evTick})
}

// HandleSimEvent implements sim.Handler.
func (s *Scheduler) HandleSimEvent(now simtime.Time, ev sim.Payload) {
	switch ev.Kind {
	case evAccount:
		s.account(now)
	case evTick:
		s.tick(now)
	case evRatelimitKick:
		// The waker may have been torn down since the kick was armed; an
		// inactive slot means the retry is moot.
		if int(ev.Owner) < len(s.st) && s.st[ev.Owner].active {
			if hs := s.h.Hot()[ev.Owner]; hs.Runnable && hs.PCPU < 0 {
				s.h.Kick(s.h.PCPUs()[ev.Arg], now)
			}
		}
	default:
		panic(fmt.Sprintf("credit: unknown event kind %d", ev.Kind))
	}
}

// managed reports whether v has an active credit account.
func (s *Scheduler) managed(v *hv.VCPU) bool {
	return v.ID < len(s.st) && s.st[v.ID].active
}

// state returns v's account; the caller has established it is active.
func (s *Scheduler) state(v *hv.VCPU) *vcpuState { return &s.st[v.ID] }

// AdmitVCPU implements hv.HostScheduler: Credit admits everything. A VCPU
// created with a non-zero reservation is interpreted as capped at the
// reservation's bandwidth (Xen's "cap" parameter).
func (s *Scheduler) AdmitVCPU(v *hv.VCPU) error {
	if v.Weight <= 0 {
		return fmt.Errorf("credit: %w: non-positive weight %d", hv.ErrAdmission, v.Weight)
	}
	st := vcpuState{runningOn: -1, active: true}
	if v.RT && v.Res.Budget > 0 {
		st.cap = v.Res.Bandwidth()
		st.credits = simtime.Duration(st.cap * float64(AccountPeriod))
	}
	for len(s.st) <= v.ID {
		s.st = append(s.st, vcpuState{})
	}
	s.st[v.ID] = st
	s.vcpus = append(s.vcpus, int32(v.ID))
	return nil
}

// CapOf reports v's credit cap as a CPU fraction (0 = uncapped). A capped
// VCPU's per-period refill is exactly cap × AccountPeriod. Read-only;
// used by the invariant oracles in internal/check.
func (s *Scheduler) CapOf(v *hv.VCPU) float64 {
	if s.managed(v) {
		return s.st[v.ID].cap
	}
	return 0
}

// ChargedOf reports the cumulative CPU time this scheduler has debited v
// for. Under exact accounting it equals the CPU time v obtained (modulo
// the currently-open run, settled on the next switch or Sync); under
// SampledAccounting it is whatever the ticks happened to observe.
func (s *Scheduler) ChargedOf(v *hv.VCPU) simtime.Duration {
	if s.managed(v) {
		return s.st[v.ID].charged
	}
	return 0
}

// RemoveVCPU implements hv.HostScheduler.
func (s *Scheduler) RemoveVCPU(v *hv.VCPU, now simtime.Time) {
	for i, x := range s.vcpus {
		if x == int32(v.ID) {
			s.vcpus = append(s.vcpus[:i], s.vcpus[i+1:]...)
			break
		}
	}
	if v.ID < len(s.st) {
		s.st[v.ID] = vcpuState{}
	}
}

// UpdateVCPU implements hv.HostScheduler: reservations are meaningless to
// Credit; the call is accepted so generic plumbing works.
func (s *Scheduler) UpdateVCPU(v *hv.VCPU, res hv.Reservation, now simtime.Time) error {
	v.Res = res
	return nil
}

// account refills credits proportionally to weight (Xen's csched_acct).
func (s *Scheduler) account(now simtime.Time) {
	var totalWeight int64
	for _, id := range s.vcpus {
		totalWeight += int64(s.h.ByID(int(id)).Weight)
	}
	if totalWeight > 0 {
		pool := simtime.Duration(int64(AccountPeriod) * int64(s.h.NumPCPUs()))
		for _, id := range s.vcpus {
			v := s.h.ByID(int(id))
			st := &s.st[id]
			s.settle(v, now)
			share := simtime.ScaleDuration(pool, int64(v.Weight), totalWeight)
			if st.cap > 0 {
				// Capped VCPU: credits are the cap's share, full stop.
				share = simtime.Duration(st.cap * float64(AccountPeriod))
			}
			st.credits += share
			// Cap accumulation at one period's share so an idle VCPU
			// cannot hoard unbounded credits (Xen caps similarly).
			if st.credits > share {
				st.credits = share
			}
			if s.h.Tracing() {
				s.h.Emit(trace.Event{At: now, Kind: trace.Replenish, PCPU: -1,
					VM: v.VM.Name, VCPU: v.Index, Arg: int64(share)})
			}
		}
		// Capped VCPUs that were parked may run again.
		for _, p := range s.h.PCPUs() {
			if p.Current() == nil {
				s.h.Kick(p, now)
			}
		}
	}
	s.h.Sim.PostAt(now.Add(AccountPeriod), sim.Payload{Handler: s.id, Kind: evAccount})
}

// tick deboosts running VCPUs and charges the tick cost on busy PCPUs. The
// cost comes from the shared platform model (hv.CostModel.Tick), sampled
// per busy PCPU from the host's cost stream. It is the overhead that
// stretches Credit's dedicated-CPU tail in Table 4.
func (s *Scheduler) tick(now simtime.Time) {
	tickCost := s.h.Costs.Tick
	for _, p := range s.h.PCPUs() {
		if cur := p.Current(); cur != nil {
			if s.managed(cur) {
				st := &s.st[cur.ID]
				if st.boost {
					st.boost = false
				}
				if s.cfg.SampledAccounting {
					// Tick sampling: the occupant is presumed to have run
					// the whole interval since the last tick. Deplete's
					// overdraw Arg stays zero — sampling overdraws the cap
					// by construction, and flagging the naive double is the
					// stolen-bandwidth meter's job, not BudgetOracle's.
					had := st.credits > 0
					st.credits -= TickEvery
					st.charged += TickEvery
					if had && st.credits <= 0 && s.h.Tracing() {
						s.h.Emit(trace.Event{At: now, Kind: trace.Deplete,
							PCPU: p.ID, VM: cur.VM.Name, VCPU: cur.Index})
					}
				}
			}
			if c := s.h.DrawCost(tickCost); c > 0 {
				s.h.Overhead.ScheduleCalls++
				s.h.ChargeScheduleWork(p, c)
			}
		}
	}
	s.h.Sim.PostAt(now.Add(TickEvery), sim.Payload{Handler: s.id, Kind: evTick})
}

// settle burns credits for a running VCPU up to now. Under sampled
// accounting nothing burns here — the tick is the only debit point — but
// lastAt still advances (the ratelimit measures runs from it).
func (s *Scheduler) settle(v *hv.VCPU, now simtime.Time) {
	st := s.state(v)
	if st.runningOn < 0 {
		return
	}
	if s.cfg.SampledAccounting {
		st.lastAt = now
		return
	}
	had := st.credits > 0
	elapsed := now.Sub(st.lastAt)
	st.credits -= elapsed
	st.charged += elapsed
	st.lastAt = now
	// The UNDER→OVER transition is Credit's budget-exhaustion moment. For
	// a capped VCPU, Arg carries the overdraw past the cap boundary:
	// Schedule parks it at exactly zero credits, so anything non-zero is
	// an accounting bug (check.BudgetOracle). Uncapped VCPUs run into
	// negative credit legitimately (the OVER band) and report no overdraw.
	if had && st.credits <= 0 && s.h.Tracing() {
		var over int64
		if st.cap > 0 && st.credits < 0 {
			over = int64(-st.credits)
		}
		s.h.Emit(trace.Event{At: now, Kind: trace.Deplete, PCPU: int(st.runningOn),
			VM: v.VM.Name, VCPU: v.Index, Arg: over})
	}
}

// prio computes the VCPU's current priority band; parked (capped-out)
// VCPUs are reported below every band.
const prioParked = prioOver + 1

func prio(st *vcpuState) int {
	switch {
	case st.cap > 0 && st.credits <= 0:
		return prioParked
	case st.boost:
		return prioBoost
	case st.credits > 0:
		return prioUnder
	default:
		return prioOver
	}
}

// VCPUWake implements hv.HostScheduler: BOOST the waker and preempt the
// weakest PCPU if the boost outranks it, honouring the ratelimit.
func (s *Scheduler) VCPUWake(v *hv.VCPU, now simtime.Time) {
	if !s.started {
		return
	}
	st := s.state(v)
	// Xen boosts a waking VCPU unless it is already over its fair share.
	if st.credits >= 0 {
		st.boost = true
	}
	if prio(st) == prioParked {
		return // capped out until the next accounting refill
	}
	// Find the weakest-priority PCPU occupant.
	var target *hv.PCPU
	worst := -1
	for _, p := range s.h.PCPUs() {
		cur := p.Current()
		if cur == nil {
			target = p
			worst = 1 << 30
			break
		}
		pr := prioParked + 1 // foreign occupant ranks lowest
		if s.managed(cur) {
			pr = prio(&s.st[cur.ID])
		}
		if pr > worst {
			worst = pr
			target = p
		}
	}
	if target == nil {
		return
	}
	if cur := target.Current(); cur != nil {
		ok := s.managed(cur)
		if ok && prio(&s.st[cur.ID]) <= prio(st) {
			return // nothing weaker than the waker is running
		}
		// Ratelimit: let the current occupant finish its minimum run.
		if ok {
			if ran := now.Sub(s.st[cur.ID].lastAt); ran < s.cfg.Ratelimit {
				delay := s.cfg.Ratelimit - ran
				s.h.Sim.PostAfter(delay, sim.Payload{Handler: s.id, Kind: evRatelimitKick,
					Owner: int32(v.ID), Arg: int64(target.ID)})
				return
			}
		}
	}
	s.h.Kick(target, now)
}

// VCPUIdle implements hv.HostScheduler.
func (s *Scheduler) VCPUIdle(v *hv.VCPU, now simtime.Time) {
	if s.managed(v) {
		s.settle(v, now)
		s.st[v.ID].runningOn = -1
	}
}

// Schedule implements hv.HostScheduler: round-robin within the highest
// non-empty priority band.
func (s *Scheduler) Schedule(p *hv.PCPU, now simtime.Time) hv.Decision {
	if cur := p.Current(); cur != nil {
		if s.managed(cur) {
			s.settle(cur, now)
			s.st[cur.ID].runningOn = -1
		}
	}
	n := len(s.vcpus)
	work := 0
	best := int32(-1)
	bestPrio := prioOver + 1
	bestNext := 0
	hot := s.h.Hot()
	pid := int32(p.ID)
	// Removals can leave the cursor at or past n: reduce it once, then
	// wrap each step with a compare.
	j := 0
	if n > 0 {
		j = s.cursor % n
	}
	for i := 0; i < n; i++ {
		id := s.vcpus[j]
		if j++; j == n {
			j = 0
		}
		work++
		if hs := hot[id]; !hs.Runnable || (hs.PCPU >= 0 && hs.PCPU != pid) {
			continue
		}
		if pr := prio(&s.st[id]); pr < bestPrio && pr != prioParked {
			bestPrio = pr
			best = id
			bestNext = j
			if pr == prioBoost {
				break
			}
		}
	}
	if best < 0 {
		return hv.Decision{VCPU: nil, RunFor: simtime.Infinite, Work: work}
	}
	s.cursor = bestNext
	st := &s.st[best]
	st.runningOn = pid
	st.lastAt = now
	run := s.cfg.Timeslice
	if !s.cfg.SampledAccounting && st.cap > 0 && st.credits < run {
		// Exact accounting parks exactly at the cap boundary. Under
		// sampled accounting credits only move at ticks, so clamping to
		// them would grant ever-shrinking slices without ever parking;
		// the full timeslice runs and the tick does the (mis)accounting.
		run = st.credits
		if run <= 0 {
			run = 1
		}
	}
	return hv.Decision{VCPU: s.h.ByID(int(best)), RunFor: run, Work: work}
}
