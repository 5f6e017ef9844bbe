package hv

import (
	"testing"

	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// migrSched alternates a single VCPU between two PCPUs every quantum to
// exercise migration accounting.
type migrSched struct {
	h    *Host
	v    *VCPU
	next int
}

func (s *migrSched) Name() string                   { return "migr-test" }
func (s *migrSched) Attach(h *Host)                 { s.h = h }
func (s *migrSched) Start(simtime.Time)             {}
func (s *migrSched) AdmitVCPU(v *VCPU) error        { s.v = v; return nil }
func (s *migrSched) RemoveVCPU(*VCPU, simtime.Time) {}
func (s *migrSched) UpdateVCPU(v *VCPU, r Reservation, _ simtime.Time) error {
	v.Res = r
	return nil
}
func (s *migrSched) VCPUWake(v *VCPU, now simtime.Time) {
	s.h.Kick(s.h.PCPUs()[0], now)
}
func (s *migrSched) VCPUIdle(v *VCPU, now simtime.Time) {}

func (s *migrSched) Schedule(p *PCPU, now simtime.Time) Decision {
	// Bounce the VCPU: run it here for 1ms, then idle so the other PCPU
	// picks it up at its next decision point.
	if s.v != nil && s.v.Runnable() && (s.v.OnPCPU() == nil || s.v.OnPCPU() == p) && p.ID == s.next {
		s.next = 1 - s.next
		other := s.h.PCPUs()[s.next]
		// Kick the other PCPU 1ns after this allocation expires, so the
		// VCPU has been undispatched by then and can migrate.
		callAt(s.h.Sim, now.Add(simtime.Millis(1)+1), func(at simtime.Time) {
			s.h.Kick(other, at)
		})
		return Decision{VCPU: s.v, RunFor: simtime.Millis(1), Work: 1}
	}
	return Decision{VCPU: nil, RunFor: simtime.Infinite, Work: 1}
}

func TestMigrationAccounting(t *testing.T) {
	s, h := simAndHost(t, 2, CostModel{Migration: ConstCost(simtime.Micros(5))})
	g := newFifoGuest(h)
	vm := h.NewVM("vm0", g)
	v, err := vm.AddVCPU(true, Reservation{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	tk := task.NewBackground(0, "hog")
	callAfter(s, 0, func(now simtime.Time) {
		g.submit(v, tk.Release(now, simtime.Millis(50)), now)
	})
	s.RunFor(simtime.Millis(200))
	if h.Overhead.Migrations < 10 {
		t.Fatalf("migrations = %d, want many (the scheduler bounces the VCPU)", h.Overhead.Migrations)
	}
	wantTime := simtime.Duration(h.Overhead.Migrations) * simtime.Micros(5)
	if h.Overhead.MigrationTime != wantTime {
		t.Fatalf("MigrationTime = %v, want %v", h.Overhead.MigrationTime, wantTime)
	}
}

func simAndHost(t *testing.T, pcpus int, costs CostModel) (*sim.Simulator, *Host) {
	t.Helper()
	s := sim.New(1)
	h := NewHost(s, pcpus, &migrSched{}, costs)
	return s, h
}

func newSim() *sim.Simulator { return sim.New(1) }

func TestHypercallCostChargedToRunningVCPU(t *testing.T) {
	s := newSim()
	sched := &fifoSched{quantum: simtime.Millis(10)}
	var costs CostModel
	costs.SetHypercall(ConstCost(simtime.Micros(10)))
	h := NewHost(s, 1, sched, costs)
	g := newFifoGuest(h)
	vm := h.NewVM("vm0", g)
	v, _ := vm.AddVCPU(true, Reservation{}, 0)
	h.Start()
	tk := task.NewBackground(0, "t")
	callAfter(s, 0, func(now simtime.Time) {
		g.submit(v, tk.Release(now, simtime.Millis(5)), now)
	})
	// Hypercall at 2ms while the job runs: completion slips by 10µs.
	callAfter(s, simtime.Millis(2), func(now simtime.Time) {
		err := h.SchedRTVirt(Hypercall{Flag: IncBW, VCPU: v,
			Res: Reservation{Budget: simtime.Millis(1), Period: simtime.Millis(10)}})
		if err != ErrNoCrossLayer {
			t.Errorf("err = %v", err)
		}
	})
	s.RunFor(simtime.Millis(50))
	if len(g.done) != 1 {
		t.Fatalf("job not done")
	}
	want := simtime.Time(simtime.Millis(5) + simtime.Micros(10))
	if g.done[0].Finish != want {
		t.Fatalf("finish = %v, want %v (hypercall delay)", g.done[0].Finish, want)
	}
}

func TestChargeScheduleWorkDelaysExecution(t *testing.T) {
	s := newSim()
	sched := &fifoSched{quantum: simtime.Millis(100)}
	h := NewHost(s, 1, sched, CostModel{})
	g := newFifoGuest(h)
	vm := h.NewVM("vm0", g)
	v, _ := vm.AddVCPU(true, Reservation{}, 0)
	h.Start()
	tk := task.NewBackground(0, "t")
	callAfter(s, 0, func(now simtime.Time) {
		g.submit(v, tk.Release(now, simtime.Millis(3)), now)
	})
	callAfter(s, simtime.Millis(1), func(now simtime.Time) {
		h.ChargeScheduleWork(h.PCPUs()[0], simtime.Micros(200))
	})
	s.RunFor(simtime.Millis(50))
	if len(g.done) != 1 {
		t.Fatal("job not done")
	}
	want := simtime.Time(simtime.Millis(3) + simtime.Micros(200))
	if g.done[0].Finish != want {
		t.Fatalf("finish = %v, want %v", g.done[0].Finish, want)
	}
	if h.Overhead.ScheduleTime < simtime.Micros(200) {
		t.Fatalf("ScheduleTime = %v", h.Overhead.ScheduleTime)
	}
}

func TestSyncIsIdempotentAndExact(t *testing.T) {
	s := newSim()
	sched := &fifoSched{quantum: simtime.Millis(10)}
	h := NewHost(s, 1, sched, CostModel{})
	g := newFifoGuest(h)
	vm := h.NewVM("vm0", g)
	v, _ := vm.AddVCPU(true, Reservation{}, 0)
	h.Start()
	tk := task.NewBackground(0, "t")
	callAfter(s, 0, func(now simtime.Time) {
		g.submit(v, tk.Release(now, simtime.Millis(10)), now)
	})
	s.RunFor(simtime.Millis(4))
	h.Sync()
	if v.TotalRun != simtime.Millis(4) {
		t.Fatalf("TotalRun after Sync = %v, want 4ms", v.TotalRun)
	}
	h.Sync() // idempotent
	if v.TotalRun != simtime.Millis(4) {
		t.Fatalf("double Sync changed accounting: %v", v.TotalRun)
	}
	s.RunFor(simtime.Millis(20))
	if v.TotalRun != simtime.Millis(10) {
		t.Fatalf("final TotalRun = %v, want 10ms", v.TotalRun)
	}
}

// TestVCPURecheckSwitchesJobs drives the guest-preemption path directly: a
// newly queued job with an earlier deadline replaces the running one when
// the guest rechecks.
func TestVCPURecheckSwitchesJobs(t *testing.T) {
	s := newSim()
	sched := &fifoSched{quantum: simtime.Millis(100)}
	costs := CostModel{GuestSwitch: ConstCost(simtime.Micros(3))}
	h := NewHost(s, 1, sched, costs)
	g := newFifoGuest(h)
	vm := h.NewVM("vm0", g)
	v, _ := vm.AddVCPU(true, Reservation{}, 0)
	h.Start()
	tk := task.NewBackground(0, "t")
	long := tk.Release(0, simtime.Millis(20))
	callAfter(s, 0, func(now simtime.Time) { g.submit(v, long, now) })
	// At 5ms, inject an urgent job at the queue head and recheck.
	urgent := tk.Release(simtime.Time(simtime.Millis(5)), simtime.Millis(1))
	callAfter(s, simtime.Millis(5), func(now simtime.Time) {
		g.queues[v] = append([]*task.Job{urgent}, g.queues[v]...)
		h.VCPURecheck(v, now)
	})
	s.RunFor(simtime.Millis(50))
	if !urgent.Done || urgent.Finish != simtime.Time(simtime.Millis(6)+simtime.Micros(3)) {
		t.Fatalf("urgent job finish = %v (done=%v), want 6.003ms", urgent.Finish, urgent.Done)
	}
	if !long.Done {
		t.Fatal("preempted job never resumed")
	}
	if h.Overhead.GuestSwitches == 0 {
		t.Fatal("guest switch not accounted")
	}
}

// TestHostAccessors covers the small reporting helpers.
func TestHostAccessors(t *testing.T) {
	s := newSim()
	sched := &fifoSched{quantum: simtime.Millis(10)}
	h := NewHost(s, 2, sched, CostModel{})
	g := newFifoGuest(h)
	vm := h.NewVM("vm0", g)
	v, _ := vm.AddVCPU(true, Reservation{}, 0)
	h.Start()
	if h.StartTime() != 0 {
		t.Fatalf("StartTime = %v", h.StartTime())
	}
	tk := task.NewBackground(0, "t")
	callAfter(s, 0, func(now simtime.Time) { g.submit(v, tk.Release(now, simtime.Millis(7)), now) })
	s.RunFor(simtime.Millis(20))
	h.Sync()
	var busy simtime.Duration
	for _, p := range h.PCPUs() {
		busy += p.BusyTime
	}
	if busy != simtime.Millis(7) {
		t.Fatalf("PCPU busy time = %v, want 7ms", busy)
	}
	if h.OverheadPercent() != 0 {
		t.Fatalf("OverheadPercent = %v with zero costs", h.OverheadPercent())
	}
	h.WriteSporadicFloor(v, simtime.Millis(5))
	if v.SporadicFloor != simtime.Millis(5) {
		t.Fatal("floor write lost")
	}
	if v.CurrentJob() != nil {
		t.Fatal("CurrentJob should be nil after completion")
	}
	if Kind := (Reservation{Budget: 1, Period: 2}).String(); Kind == "" {
		t.Fatal("Reservation.String empty")
	}
}
