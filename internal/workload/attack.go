package workload

import (
	"fmt"
	"sort"

	"rtvirt/internal/guest"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// This file models the cycle-stealing scheduler attack of Zhou et al.
// ("Scheduler Vulnerabilities and Attacks in Cloud Computing"): a tenant
// that learns the host scheduler's tick period and sleeps across each
// tick so sampled accounting never observes it running, then burns CPU
// between ticks for free. The attacks experiment quantifies the theft
// from the trace bus: CPU time actually obtained (a trace.Summary's Run)
// versus CPU time the scheduler charged, per scheduler, so
// exact-accounting schedulers (Credit's settle-on-switch, RT-Xen,
// DP-WRAP) can be compared against a deliberately-naive tick-sampled
// double under the same attacker.

// EvaderConfig tunes the TickEvader.
type EvaderConfig struct {
	// TickPeriod, when positive, is the declared tick period — the
	// attacker read the scheduler docs. Zero makes it learn the period
	// from latency spikes, as the real attack does.
	TickPeriod simtime.Duration
	// Guard is the maximum sleep margin kept on each side of a predicted
	// tick (clamped to period/8 once the period is known).
	Guard simtime.Duration
	// ProbeDemand is the CPU demand of each learning probe.
	ProbeDemand simtime.Duration
	// ProbeGap is the spacing between learning probes.
	ProbeGap simtime.Duration
	// ProbeSpikes is how many tick-cost spikes to collect before
	// estimating the period.
	ProbeSpikes int
	// SpikeMin/SpikeMax bracket the per-job excess latency classified as
	// a tick-processing spike: long enough to exclude dispatch jitter,
	// short enough to exclude preemption by another VCPU.
	SpikeMin simtime.Duration
	SpikeMax simtime.Duration
}

// DefaultEvaderConfig matches the default Credit host (10ms tick, ~20µs
// tick cost, ≥500µs ratelimit so preemptions are well above SpikeMax).
func DefaultEvaderConfig() EvaderConfig {
	return EvaderConfig{
		Guard:       simtime.Micros(500),
		ProbeDemand: simtime.Micros(200),
		ProbeGap:    simtime.Millis(1),
		ProbeSpikes: 5,
		SpikeMin:    simtime.Micros(10),
		SpikeMax:    simtime.Micros(150),
	}
}

// Evader phases.
const (
	evaderProbing = iota
	evaderAttacking
)

// TickEvader is the attacking workload: a background task (no reservation
// to keep — theft is measured against the fair/capped share) that probes
// with short jobs to locate tick-cost latency spikes, estimates the tick
// period from their spacing, then releases bursts sized to fit exactly
// between consecutive ticks with a guard margin on both sides. Under
// tick-sampled accounting the attacker is never observed running; under
// exact accounting the same behaviour is charged in full and the attack
// yields nothing — which is precisely the comparison the meter reports.
type TickEvader struct {
	Task  *task.Task
	Guest *guest.OS
	Cfg   EvaderConfig

	// Probes/Bursts count released jobs per phase; Resyncs counts falls
	// back to probing after a disturbed burst; BurstWork totals the CPU
	// time obtained by clean bursts.
	Probes    int
	Bursts    int
	Resyncs   int
	BurstWork simtime.Duration

	phase    int
	period   simtime.Duration
	nextTick simtime.Time
	spikes   []simtime.Time

	sim *sim.Simulator
	id  int32
}

// NewTickEvader registers the attacker's background task on g.
func NewTickEvader(g *guest.OS, id int, name string, cfg EvaderConfig) (*TickEvader, error) {
	t := task.NewBackground(id, name)
	if err := g.Register(t); err != nil {
		return nil, err
	}
	return NewTickEvaderFor(g, t, cfg)
}

// NewTickEvaderFor wires an evader onto an already-registered background
// task.
func NewTickEvaderFor(g *guest.OS, t *task.Task, cfg EvaderConfig) (*TickEvader, error) {
	if cfg.ProbeDemand <= 0 || cfg.ProbeGap <= 0 || cfg.ProbeSpikes < 2 ||
		cfg.SpikeMin <= 0 || cfg.SpikeMax <= cfg.SpikeMin || cfg.Guard <= 0 {
		return nil, fmt.Errorf("workload: invalid evader config %+v", cfg)
	}
	e := &TickEvader{Task: t, Guest: g, Cfg: cfg, sim: g.VM().Host().Sim}
	e.id = e.sim.RegisterHandler(e)
	t.OnJobDone = e.jobDone
	return e, nil
}

// Period reports the attacker's current tick-period estimate (0 while
// still learning).
func (e *TickEvader) Period() simtime.Duration { return e.period }

// Start begins the attack at the given instant.
func (e *TickEvader) Start(at simtime.Time) {
	if e.Cfg.TickPeriod > 0 {
		// Declared period: skip learning. The host scheduler posts its
		// first tick one period after its own start (time 0 in every
		// experiment), so ticks land on multiples of the period.
		e.period = e.Cfg.TickPeriod
		e.phase = evaderAttacking
		e.nextTick = simtime.Time(0).Add(e.period)
		for !e.nextTick.After(at) {
			e.nextTick = e.nextTick.Add(e.period)
		}
		e.sim.PostAt(e.nextTick.Add(e.guard()), sim.Payload{Handler: e.id, Kind: evEvaderBurst})
		return
	}
	e.sim.PostAt(at, sim.Payload{Handler: e.id, Kind: evEvaderProbe})
}

// guard is the sleep margin around a predicted tick.
func (e *TickEvader) guard() simtime.Duration {
	g := e.Cfg.Guard
	if e.period > 0 && g > e.period/8 {
		g = e.period / 8
	}
	return g
}

// HandleSimEvent implements sim.Handler.
func (e *TickEvader) HandleSimEvent(now simtime.Time, ev sim.Payload) {
	switch ev.Kind {
	case evEvaderProbe:
		if e.phase != evaderProbing {
			return // a stale probe timer after the attack started
		}
		e.Probes++
		e.Guest.ReleaseJob(e.Task, e.Cfg.ProbeDemand)
		e.sim.PostAt(now.Add(e.Cfg.ProbeGap), sim.Payload{Handler: e.id, Kind: evEvaderProbe})
	case evEvaderBurst:
		if e.phase != evaderAttacking {
			return
		}
		e.Bursts++
		e.Guest.ReleaseJob(e.Task, e.period-2*e.guard())
	default:
		panic(fmt.Sprintf("workload: unknown evader event kind %d", ev.Kind))
	}
}

// jobDone classifies each completion: during probing it collects tick
// spikes and estimates the period; during the attack it verifies the
// burst ran undisturbed and schedules the next one (or resyncs).
func (e *TickEvader) jobDone(j *task.Job) {
	excess := j.Finish.Sub(j.Release) - j.Demand
	if e.phase == evaderProbing {
		if excess >= e.Cfg.SpikeMin && excess <= e.Cfg.SpikeMax {
			e.spikes = append(e.spikes, j.Finish)
			e.learn()
		}
		return
	}
	if excess > e.guard() {
		// Delayed past the guard margin the window was sized for: the burst
		// overlapped a tick, or contention preempted it long enough that it
		// did. Either way the prediction is worthless now — fall back to
		// probing. (Delays up to one guard keep the burst inside its
		// inter-tick window, so they are tolerated.)
		e.Resyncs++
		e.phase = evaderProbing
		e.period = 0
		e.spikes = nil
		e.sim.PostAt(j.Finish, sim.Payload{Handler: e.id, Kind: evEvaderProbe})
		return
	}
	e.BurstWork += j.Demand
	for !e.nextTick.Add(e.guard()).After(j.Finish) {
		e.nextTick = e.nextTick.Add(e.period)
	}
	e.sim.PostAt(e.nextTick.Add(e.guard()), sim.Payload{Handler: e.id, Kind: evEvaderBurst})
}

// learn estimates the tick period once enough spikes are in. Probes cover
// only a fraction of the timeline, so consecutive spikes may be several
// periods apart: the smallest gap is the base candidate, every gap is
// folded by its nearest multiple of the base, and the median of the folds
// is the estimate.
func (e *TickEvader) learn() {
	if len(e.spikes) < e.Cfg.ProbeSpikes {
		return
	}
	gaps := make([]simtime.Duration, 0, len(e.spikes)-1)
	base := simtime.Infinite
	for i := 1; i < len(e.spikes); i++ {
		g := e.spikes[i].Sub(e.spikes[i-1])
		gaps = append(gaps, g)
		if g < base {
			base = g
		}
	}
	if base < 4*e.Cfg.ProbeGap {
		// Implausibly small: two spikes from one tick's turbulence. Drop
		// the oldest spike and keep probing.
		e.spikes = e.spikes[1:]
		return
	}
	folded := make([]simtime.Duration, 0, len(gaps))
	for _, g := range gaps {
		k := (int64(g) + int64(base)/2) / int64(base)
		if k < 1 {
			k = 1
		}
		folded = append(folded, simtime.Duration(int64(g)/k))
	}
	sort.Slice(folded, func(i, j int) bool { return folded[i] < folded[j] })
	e.period = folded[len(folded)/2]
	e.phase = evaderAttacking
	anchor := e.spikes[len(e.spikes)-1]
	e.nextTick = anchor.Add(e.period)
	e.sim.PostAt(e.nextTick.Add(e.guard()), sim.Payload{Handler: e.id, Kind: evEvaderBurst})
}
