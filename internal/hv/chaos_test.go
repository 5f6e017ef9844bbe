package hv

import (
	"testing"
	"testing/quick"

	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// chaosSched makes random-but-legal decisions: random runnable VCPU,
// random run duration, random kicks. It exists to hammer the kernel's
// accounting invariants, not to schedule well.
type chaosSched struct {
	h   *Host
	rng *sim.RNG
	all []*VCPU
}

func (s *chaosSched) Name() string                   { return "chaos" }
func (s *chaosSched) Attach(h *Host)                 { s.h = h }
func (s *chaosSched) Start(simtime.Time)             {}
func (s *chaosSched) AdmitVCPU(v *VCPU) error        { s.all = append(s.all, v); return nil }
func (s *chaosSched) RemoveVCPU(*VCPU, simtime.Time) {}
func (s *chaosSched) UpdateVCPU(v *VCPU, r Reservation, _ simtime.Time) error {
	v.Res = r
	return nil
}

func (s *chaosSched) VCPUWake(v *VCPU, now simtime.Time) {
	// Randomly kick a PCPU (or none).
	if s.rng.Intn(2) == 0 {
		p := s.h.PCPUs()[s.rng.Intn(s.h.NumPCPUs())]
		s.h.Kick(p, now)
	}
}

func (s *chaosSched) VCPUIdle(v *VCPU, now simtime.Time) {}

func (s *chaosSched) Schedule(p *PCPU, now simtime.Time) Decision {
	// Collect candidates available to this PCPU.
	var cands []*VCPU
	for _, v := range s.all {
		if v.Runnable() && (v.OnPCPU() == nil || v.OnPCPU() == p) {
			cands = append(cands, v)
		}
	}
	// Randomly idle even when work exists (starvation is legal).
	if len(cands) == 0 || s.rng.Intn(4) == 0 {
		return Decision{VCPU: nil, RunFor: simtime.Duration(1 + s.rng.Int63n(int64(simtime.Millis(3))))}
	}
	v := cands[s.rng.Intn(len(cands))]
	run := simtime.Duration(1 + s.rng.Int63n(int64(simtime.Millis(5))))
	return Decision{VCPU: v, RunFor: run, Work: len(cands)}
}

// chaosGuest randomly queues jobs and serves them in random order.
type chaosGuest struct {
	h      *Host
	rng    *sim.RNG
	queues map[*VCPU][]*task.Job
}

func (g *chaosGuest) PickJob(v *VCPU, now simtime.Time) *task.Job {
	q := g.queues[v]
	if len(q) == 0 {
		return nil
	}
	return q[g.rng.Intn(len(q))]
}

func (g *chaosGuest) JobCompleted(v *VCPU, j *task.Job, now simtime.Time) {
	q := g.queues[v]
	for i, x := range q {
		if x == j {
			g.queues[v] = append(q[:i], q[i+1:]...)
			return
		}
	}
	panic("chaosGuest: completed job not queued")
}

// TestQuickKernelConservation: under an adversarial random scheduler the
// kernel's accounting identities must hold exactly:
//
//	per PCPU:  busy + overhead + idle == elapsed
//	global:    Σ task work consumed == Σ PCPU busy == Σ VCPU TotalRun
//	jobs:      every completed job consumed exactly its demand
func TestQuickKernelConservation(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		s := sim.New(seed)
		pcpus := 1 + rng.Intn(3)
		var costs CostModel
		costs.ScheduleBase = ConstCost(simtime.Duration(rng.Int63n(3000)))
		costs.SetContextSwitch(ConstCost(simtime.Duration(rng.Int63n(5000))))
		costs.Migration = ConstCost(simtime.Duration(rng.Int63n(5000)))
		costs.GuestSwitch = ConstCost(simtime.Duration(rng.Int63n(2000)))
		sched := &chaosSched{rng: rng.Split()}
		h := NewHost(s, pcpus, sched, costs)
		g := &chaosGuest{h: h, rng: rng.Split(), queues: map[*VCPU][]*task.Job{}}
		vm := h.NewVM("chaos", g)
		nv := 1 + rng.Intn(5)
		var vcpus []*VCPU
		for i := 0; i < nv; i++ {
			v, err := vm.AddVCPU(true, Reservation{}, 1)
			if err != nil {
				return false
			}
			vcpus = append(vcpus, v)
		}
		h.Start()

		// Random job submissions over 2 seconds.
		tk := task.NewBackground(0, "chaos")
		var allJobs []*task.Job
		n := 20 + rng.Intn(80)
		for i := 0; i < n; i++ {
			at := simtime.Time(rng.Int63n(int64(simtime.Seconds(2))))
			v := vcpus[rng.Intn(len(vcpus))]
			demand := simtime.Duration(1 + rng.Int63n(int64(simtime.Millis(20))))
			callAt(s, at, func(now simtime.Time) {
				j := tk.Release(now, demand)
				allJobs = append(allJobs, j)
				g.queues[v] = append(g.queues[v], j)
				h.VCPUWake(v, now)
			})
		}
		dur := simtime.Seconds(3)
		s.RunUntil(simtime.Time(dur))
		h.Sync()

		// Identity 1: per-PCPU time budget.
		for _, p := range h.PCPUs() {
			total := p.BusyTime + p.OverheadTime + p.IdleTime
			if total > simtime.Duration(int64(dur)) {
				t.Logf("seed %d: pcpu%d accounts %v > elapsed %v", seed, p.ID, total, dur)
				return false
			}
			// advance() always runs to the last event; the gap to `dur` is
			// un-advanced tail (< one pending grant). Sync closed it.
			if total != simtime.Duration(int64(dur)) {
				t.Logf("seed %d: pcpu%d accounts %v != %v", seed, p.ID, total, dur)
				return false
			}
		}
		// Identity 2: work conservation.
		var busy, vrun simtime.Duration
		for _, p := range h.PCPUs() {
			busy += p.BusyTime
		}
		for _, v := range vcpus {
			vrun += v.TotalRun
		}
		if busy != vrun || busy != tk.Stats().TotalWork {
			t.Logf("seed %d: busy %v, vcpu run %v, task work %v", seed, busy, vrun, tk.Stats().TotalWork)
			return false
		}
		// Identity 3: completed jobs consumed exactly their demand.
		for _, j := range allJobs {
			if j.Done && !j.Abandoned && j.Remaining != 0 {
				t.Logf("seed %d: done job with %v remaining", seed, j.Remaining)
				return false
			}
			if !j.Done && j.Remaining > j.Demand {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
