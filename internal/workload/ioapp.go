package workload

import (
	"fmt"

	"rtvirt/internal/dist"
	"rtvirt/internal/guest"
	"rtvirt/internal/metrics"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// IOAppConfig describes a request-driven application whose requests mix
// CPU work with an I/O wait: compute → I/O → compute. RTVirt guarantees
// only the CPU phases (§1: "RTVirt cannot provide any timeliness guarantee
// for such activities"); this workload measures what that means
// end-to-end.
type IOAppConfig struct {
	// Compute1/Compute2 are the CPU demands around the I/O wait.
	Compute1, Compute2 simtime.Duration
	// SLO is the end-to-end latency target.
	SLO simtime.Duration
	// ReservePeriod sizes the RTA reservation period (0 = SLO). Under
	// contention the fluid supply only completes by the period's end, so a
	// two-phase request needs a period comfortably inside the SLO.
	ReservePeriod simtime.Duration
	// Rate is the request arrival rate per second.
	Rate float64
	// Requests bounds the stream (0 = unlimited; negative is rejected).
	Requests int
}

// ioWait is the device time between a request's two CPU phases: a
// storage round-trip of ~200µs.
var ioWait = dist.Normal{MeanD: simtime.Micros(200), Stddev: simtime.Micros(30), Min: simtime.Micros(50)}

// DefaultIOAppConfig models a storage-backed RPC: 30µs + 80µs of CPU
// around a ~200µs device wait, 1ms SLO, 200 QPS.
func DefaultIOAppConfig() IOAppConfig {
	return IOAppConfig{
		Compute1: simtime.Micros(30),
		Compute2: simtime.Micros(80),
		SLO:      simtime.Millis(1),
		Rate:     200,
	}
}

// IOApp drives the two-phase requests against one RTA. The RTA's declared
// slice covers both CPU phases; the I/O wait happens off-CPU (the VCPU
// blocks, exactly like a real driver round-trip).
type IOApp struct {
	Task  *task.Task
	Guest *guest.OS
	Cfg   IOAppConfig

	// Latency is the end-to-end (arrival → final completion) distribution.
	Latency metrics.LatencyRecorder
	// CPULatency isolates the CPU-phase response times the scheduler is
	// accountable for.
	CPULatency metrics.LatencyRecorder
	// SLOViolations counts requests exceeding the end-to-end SLO.
	SLOViolations int

	// src sends the requests; the device waits draw from its RNG stream
	// too.
	src Source
	sim *sim.Simulator
	id  int32

	// pending maps a phase-2 job to its request arrival time.
	pending map[*task.Job]simtime.Time
	// phase1 maps a phase-1 job to its request arrival time.
	phase1 map[*task.Job]simtime.Time
}

// NewIOApp registers the application's RTA on g. The reservation covers
// the summed CPU demand per SLO period.
func NewIOApp(g *guest.OS, id int, cfg IOAppConfig) (*IOApp, error) {
	if cfg.SLO <= 0 || cfg.Rate <= 0 || cfg.Compute1 <= 0 || cfg.Compute2 <= 0 || cfg.Requests < 0 {
		return nil, fmt.Errorf("workload: invalid IO app config %+v", cfg)
	}
	period := cfg.ReservePeriod
	if period <= 0 {
		period = cfg.SLO
	}
	t := task.New(id, fmt.Sprintf("ioapp-%d", id), task.Sporadic,
		task.Params{Slice: cfg.Compute1 + cfg.Compute2, Period: period})
	if err := g.Register(t); err != nil {
		return nil, err
	}
	mean := simtime.Duration(1e9 / cfg.Rate)
	a := &IOApp{
		Task:  t,
		Guest: g,
		Cfg:   cfg,
		src: Source{
			// The declared reservation assumes the sporadic contract: at
			// most one request per SLO period. The arrival process honours
			// it (gaps clamped at the SLO), like the paper's TCP-triggered
			// clients.
			Arrivals: Renewal{D: dist.Normal{MeanD: mean, Stddev: mean / 4, Min: cfg.SLO}},
			Requests: cfg.Requests,
		},
		sim:     g.VM().Host().Sim,
		pending: map[*task.Job]simtime.Time{},
		phase1:  map[*task.Job]simtime.Time{},
	}
	a.id = a.sim.RegisterHandler(a)
	t.OnJobDone = a.jobDone
	return a, nil
}

// Start begins the request stream.
func (a *IOApp) Start(at simtime.Time) {
	a.src.Open(a.sim.RNG().Split())
	a.sim.PostAt(at, sim.Payload{Handler: a.id, Kind: evIOArrive})
}

// HandleSimEvent implements sim.Handler.
func (a *IOApp) HandleSimEvent(now simtime.Time, ev sim.Payload) {
	switch ev.Kind {
	case evIOArrive:
		a.arrive(now)
	case evIOPhase2:
		j2 := a.Guest.ReleaseJob(a.Task, a.Cfg.Compute2)
		a.pending[j2] = simtime.Time(ev.Arg0)
	default:
		panic(fmt.Sprintf("workload: unknown IO app event kind %d", ev.Kind))
	}
}

// Stop ends the request stream.
func (a *IOApp) Stop() { a.src.Stop() }

// Sent reports the number of requests issued.
func (a *IOApp) Sent() int { return a.src.Sent() }

func (a *IOApp) arrive(now simtime.Time) {
	if _, ok := a.src.Send(); !ok {
		return
	}
	j := a.Guest.ReleaseJob(a.Task, a.Cfg.Compute1)
	a.phase1[j] = now
	if gap, ok := a.src.Gap(now); ok {
		a.sim.PostAt(now.Add(gap), sim.Payload{Handler: a.id, Kind: evIOArrive})
	}
}

func (a *IOApp) jobDone(j *task.Job) {
	if arrival, ok := a.phase1[j]; ok {
		delete(a.phase1, j)
		a.CPULatency.Add(j.Finish.Sub(j.Release))
		if j.Abandoned {
			return
		}
		// Phase 1 done: the request leaves the CPU for its device wait,
		// then re-enters the run queue for phase 2.
		wait := ioWait.Sample(a.src.rng)
		a.sim.PostAfter(wait, sim.Payload{Handler: a.id, Kind: evIOPhase2, Arg0: int64(arrival)})
		return
	}
	if arrival, ok := a.pending[j]; ok {
		delete(a.pending, j)
		a.CPULatency.Add(j.Finish.Sub(j.Release))
		if j.Abandoned {
			return
		}
		total := j.Finish.Sub(arrival)
		a.Latency.Add(total)
		if total > a.Cfg.SLO {
			a.SLOViolations++
		}
	}
}
