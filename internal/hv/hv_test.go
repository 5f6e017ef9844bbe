package hv

import (
	"testing"

	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// fifoSched is a minimal host scheduler for kernel tests: strict FIFO over
// runnable VCPUs, each getting a fixed quantum.
type fifoSched struct {
	h       *Host
	quantum simtime.Duration
	ready   []*VCPU
}

func (s *fifoSched) Name() string                   { return "fifo-test" }
func (s *fifoSched) Attach(h *Host)                 { s.h = h }
func (s *fifoSched) Start(simtime.Time)             {}
func (s *fifoSched) AdmitVCPU(v *VCPU) error        { return nil }
func (s *fifoSched) RemoveVCPU(*VCPU, simtime.Time) {}
func (s *fifoSched) UpdateVCPU(v *VCPU, r Reservation, _ simtime.Time) error {
	v.Res = r
	return nil
}

func (s *fifoSched) VCPUWake(v *VCPU, now simtime.Time) {
	s.ready = append(s.ready, v)
	for _, p := range s.h.PCPUs() {
		if p.Current() == nil {
			s.h.Kick(p, now)
			return
		}
	}
}

func (s *fifoSched) VCPUIdle(v *VCPU, now simtime.Time) {
	for i, r := range s.ready {
		if r == v {
			s.ready = append(s.ready[:i], s.ready[i+1:]...)
			return
		}
	}
}

func (s *fifoSched) Schedule(p *PCPU, now simtime.Time) Decision {
	// Round-robin: requeue the current VCPU, take the head.
	if p.cur != nil && p.cur.Runnable() {
		s.VCPUIdle(p.cur, now) // remove
		s.ready = append(s.ready, p.cur)
	}
	for _, v := range s.ready {
		if v.Runnable() && (v.OnPCPU() == nil || v.OnPCPU() == p) {
			return Decision{VCPU: v, RunFor: s.quantum, Work: len(s.ready)}
		}
	}
	// Nothing runnable for this PCPU: sleep until a wake kicks us.
	return Decision{VCPU: nil, RunFor: simtime.Infinite}
}

// fifoGuest runs queued jobs per VCPU in FIFO order.
type fifoGuest struct {
	h      *Host
	queues map[*VCPU][]*task.Job
	done   []*task.Job
}

func newFifoGuest(h *Host) *fifoGuest {
	return &fifoGuest{h: h, queues: map[*VCPU][]*task.Job{}}
}

func (g *fifoGuest) PickJob(v *VCPU, now simtime.Time) *task.Job {
	q := g.queues[v]
	if len(q) == 0 {
		return nil
	}
	return q[0]
}

func (g *fifoGuest) JobCompleted(v *VCPU, j *task.Job, now simtime.Time) {
	q := g.queues[v]
	if len(q) == 0 || q[0] != j {
		panic("fifoGuest: completed job is not queue head")
	}
	g.queues[v] = q[1:]
	g.done = append(g.done, j)
}

func (g *fifoGuest) submit(v *VCPU, j *task.Job, now simtime.Time) {
	g.queues[v] = append(g.queues[v], j)
	g.h.VCPUWake(v, now)
}

func testHost(t testing.TB, pcpus int, costs CostModel) (*sim.Simulator, *Host, *fifoSched) {
	t.Helper()
	s := sim.New(1)
	sched := &fifoSched{quantum: simtime.Millis(10)}
	h := NewHost(s, pcpus, sched, costs)
	return s, h, sched
}

func TestSingleJobRunsToCompletion(t *testing.T) {
	s, h, _ := testHost(t, 1, CostModel{})
	g := newFifoGuest(h)
	vm := h.NewVM("vm0", g)
	v, err := vm.AddVCPU(true, Reservation{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	tk := task.New(0, "t0", task.Periodic, task.Params{Slice: simtime.Millis(3), Period: simtime.Millis(100)})
	callAfter(s, simtime.Millis(5), func(now simtime.Time) {
		g.submit(v, tk.Release(now, simtime.Millis(3)), now)
	})
	s.RunFor(simtime.Seconds(1))
	if len(g.done) != 1 {
		t.Fatalf("completed %d jobs, want 1", len(g.done))
	}
	j := g.done[0]
	// Released at 5ms, 3ms of work on an otherwise idle host with zero
	// costs: finishes at exactly 8ms.
	if j.Finish != simtime.Time(simtime.Millis(8)) {
		t.Fatalf("finish = %v, want 8ms", j.Finish)
	}
	if v.TotalRun != simtime.Millis(3) {
		t.Fatalf("TotalRun = %v, want 3ms", v.TotalRun)
	}
	if h.PCPUs()[0].BusyTime != simtime.Millis(3) {
		t.Fatalf("BusyTime = %v, want 3ms", h.PCPUs()[0].BusyTime)
	}
}

func TestCostsDelayExecution(t *testing.T) {
	costs := CostModel{ScheduleBase: ConstCost(simtime.Micros(5))}
	costs.SetContextSwitch(ConstCost(simtime.Micros(7)))
	s, h, _ := testHost(t, 1, costs)
	g := newFifoGuest(h)
	vm := h.NewVM("vm0", g)
	v, _ := vm.AddVCPU(true, Reservation{}, 0)
	h.Start()
	tk := task.New(0, "t0", task.Periodic, task.Params{Slice: simtime.Millis(1), Period: simtime.Millis(100)})
	callAfter(s, simtime.Millis(5), func(now simtime.Time) {
		g.submit(v, tk.Release(now, simtime.Millis(1)), now)
	})
	s.RunFor(simtime.Seconds(1))
	if len(g.done) != 1 {
		t.Fatalf("completed %d jobs, want 1", len(g.done))
	}
	// Start dispatched once at t=0 (5µs schedule); wake at 5ms pays another
	// schedule (5µs) + context switch (7µs); execution then runs 1ms.
	want := simtime.Time(simtime.Millis(5) + simtime.Micros(12) + simtime.Millis(1))
	if g.done[0].Finish != want {
		t.Fatalf("finish = %v, want %v", g.done[0].Finish, want)
	}
	if h.Overhead.CtxSwitches == 0 || h.Overhead.ScheduleCalls < 2 {
		t.Fatalf("overhead not recorded: %+v", h.Overhead)
	}
	if h.PCPUs()[0].OverheadTime != simtime.Micros(17) {
		t.Fatalf("PCPU overhead = %v, want 17µs", h.PCPUs()[0].OverheadTime)
	}
}

func TestTwoVCPUsShareOnePCPU(t *testing.T) {
	s, h, _ := testHost(t, 1, CostModel{})
	g := newFifoGuest(h)
	vm := h.NewVM("vm0", g)
	v1, _ := vm.AddVCPU(true, Reservation{}, 0)
	v2, _ := vm.AddVCPU(true, Reservation{}, 0)
	h.Start()
	t1 := task.New(0, "t1", task.Background, task.Params{})
	t2 := task.New(1, "t2", task.Background, task.Params{})
	callAfter(s, 0, func(now simtime.Time) {
		g.submit(v1, t1.Release(now, simtime.Millis(30)), now)
		g.submit(v2, t2.Release(now, simtime.Millis(30)), now)
	})
	s.RunFor(simtime.Millis(60))
	h.Sync()
	if len(g.done) != 2 {
		t.Fatalf("completed %d jobs, want 2", len(g.done))
	}
	// Round-robin with 10ms quantum: both finish by 60ms, total busy 60ms.
	if total := v1.TotalRun + v2.TotalRun; total != simtime.Millis(60) {
		t.Fatalf("total run = %v, want 60ms", total)
	}
	if v1.TotalRun != simtime.Millis(30) || v2.TotalRun != simtime.Millis(30) {
		t.Fatalf("unfair split: v1=%v v2=%v", v1.TotalRun, v2.TotalRun)
	}
}

func TestJobsQueueFIFOWithinVCPU(t *testing.T) {
	s, h, _ := testHost(t, 1, CostModel{})
	g := newFifoGuest(h)
	vm := h.NewVM("vm0", g)
	v, _ := vm.AddVCPU(true, Reservation{}, 0)
	h.Start()
	tk := task.NewBackground(0, "bg")
	callAfter(s, 0, func(now simtime.Time) {
		g.submit(v, tk.Release(now, simtime.Millis(2)), now)
		g.submit(v, tk.Release(now, simtime.Millis(3)), now)
	})
	s.RunFor(simtime.Millis(100))
	if len(g.done) != 2 {
		t.Fatalf("completed %d jobs, want 2", len(g.done))
	}
	if g.done[0].Finish != simtime.Time(simtime.Millis(2)) ||
		g.done[1].Finish != simtime.Time(simtime.Millis(5)) {
		t.Fatalf("finishes = %v, %v; want 2ms, 5ms", g.done[0].Finish, g.done[1].Finish)
	}
}

func TestIdleVCPUBlocksAndWakes(t *testing.T) {
	s, h, _ := testHost(t, 1, CostModel{})
	g := newFifoGuest(h)
	vm := h.NewVM("vm0", g)
	v, _ := vm.AddVCPU(true, Reservation{}, 0)
	h.Start()
	tk := task.NewBackground(0, "bg")
	callAfter(s, simtime.Millis(1), func(now simtime.Time) {
		g.submit(v, tk.Release(now, simtime.Millis(1)), now)
	})
	callAfter(s, simtime.Millis(50), func(now simtime.Time) {
		g.submit(v, tk.Release(now, simtime.Millis(1)), now)
	})
	s.RunFor(simtime.Millis(100))
	if len(g.done) != 2 {
		t.Fatalf("completed %d jobs, want 2", len(g.done))
	}
	if g.done[1].Finish != simtime.Time(simtime.Millis(51)) {
		t.Fatalf("second finish = %v, want 51ms", g.done[1].Finish)
	}
	if v.Runnable() {
		t.Fatal("drained VCPU should be blocked")
	}
	// PCPU idle time: 0-1ms, 2-50ms, 51-100ms = 98ms.
	h.Sync()
	if idle := h.PCPUs()[0].IdleTime; idle != simtime.Millis(98) {
		t.Fatalf("IdleTime = %v, want 98ms", idle)
	}
}

func TestMultiPCPUParallelism(t *testing.T) {
	s, h, _ := testHost(t, 2, CostModel{})
	g := newFifoGuest(h)
	vm := h.NewVM("vm0", g)
	v1, _ := vm.AddVCPU(true, Reservation{}, 0)
	v2, _ := vm.AddVCPU(true, Reservation{}, 0)
	h.Start()
	tk1 := task.NewBackground(0, "a")
	tk2 := task.NewBackground(1, "b")
	callAfter(s, 0, func(now simtime.Time) {
		g.submit(v1, tk1.Release(now, simtime.Millis(20)), now)
		g.submit(v2, tk2.Release(now, simtime.Millis(20)), now)
	})
	s.RunFor(simtime.Millis(25))
	h.Sync()
	if len(g.done) != 2 {
		t.Fatalf("completed %d jobs, want 2 (should run in parallel)", len(g.done))
	}
	for _, j := range g.done {
		if j.Finish != simtime.Time(simtime.Millis(20)) {
			t.Fatalf("finish = %v, want 20ms (parallel)", j.Finish)
		}
	}
}

func TestHypercallRequiresCrossLayer(t *testing.T) {
	_, h, _ := testHost(t, 1, DefaultCosts())
	g := newFifoGuest(h)
	vm := h.NewVM("vm0", g)
	v, _ := vm.AddVCPU(true, Reservation{}, 0)
	h.Start()
	err := h.SchedRTVirt(Hypercall{Flag: IncBW, VCPU: v, Res: Reservation{Budget: simtime.Millis(1), Period: simtime.Millis(10)}})
	if err != ErrNoCrossLayer {
		t.Fatalf("err = %v, want ErrNoCrossLayer", err)
	}
	if h.Overhead.Hypercalls != 1 || h.Overhead.HypercallTime != simtime.Micros(10) {
		t.Fatalf("hypercall overhead not charged: %+v", h.Overhead)
	}
}

func TestDeadlineSlotWrite(t *testing.T) {
	_, h, _ := testHost(t, 1, CostModel{})
	g := newFifoGuest(h)
	vm := h.NewVM("vm0", g)
	v, _ := vm.AddVCPU(true, Reservation{}, 0)
	if v.DeadlineSlot != simtime.Never {
		t.Fatal("fresh slot should be Never")
	}
	h.WriteDeadlineSlot(v, simtime.Time(simtime.Millis(42)))
	if v.DeadlineSlot != simtime.Time(simtime.Millis(42)) || h.Overhead.ShmWrites != 1 {
		t.Fatal("slot write not recorded")
	}
}

func TestReservationHelpers(t *testing.T) {
	r := Reservation{Budget: simtime.Millis(5), Period: simtime.Millis(20)}
	if r.Bandwidth() != 0.25 || !r.Valid() {
		t.Fatalf("reservation helpers wrong: %v", r)
	}
	if (Reservation{Budget: simtime.Millis(30), Period: simtime.Millis(20)}).Valid() {
		t.Fatal("over-full reservation should be invalid")
	}
	if (Reservation{}).Bandwidth() != 0 {
		t.Fatal("zero reservation bandwidth should be 0")
	}
}

func TestOverheadPercent(t *testing.T) {
	o := Overhead{ScheduleTime: simtime.Millis(5), CtxSwitchTime: simtime.Millis(5)}
	if got := o.Percent(simtime.Seconds(1), 1); got != 1.0 {
		t.Fatalf("Percent = %g, want 1.0", got)
	}
	if o.Percent(0, 1) != 0 || o.Percent(simtime.Second, 0) != 0 {
		t.Fatal("degenerate Percent should be 0")
	}
}

func TestVMAndVCPUAccessors(t *testing.T) {
	_, h, _ := testHost(t, 2, CostModel{})
	g := newFifoGuest(h)
	vm := h.NewVM("web", g)
	v, _ := vm.AddVCPU(true, Reservation{Budget: 1, Period: 2}, 5)
	if vm.Host() != h || v.VM != vm || v.Index != 0 || v.Weight != 5 {
		t.Fatal("accessors wrong")
	}
	if h.NumPCPUs() != 2 || len(h.VMs()) != 1 || len(h.VCPUs()) != 1 {
		t.Fatal("host accessors wrong")
	}
	if vm.String() == "" || v.String() == "" || h.String() == "" || h.PCPUs()[0].String() == "" {
		t.Fatal("Stringers empty")
	}
}

func TestStartTwicePanics(t *testing.T) {
	_, h, _ := testHost(t, 1, CostModel{})
	h.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("double Start did not panic")
		}
	}()
	h.Start()
}

func TestHypercallFlagString(t *testing.T) {
	if IncBW.String() != "INC_BW" || DecBW.String() != "DEC_BW" ||
		IncDecBW.String() != "INC_DEC_BW" || HypercallFlag(9).String() == "" {
		t.Fatal("HypercallFlag.String wrong")
	}
}
