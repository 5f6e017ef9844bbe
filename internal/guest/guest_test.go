package guest

import (
	"errors"
	"fmt"
	"testing"

	"rtvirt/internal/hv"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// clSched is a cross-layer-capable test scheduler: FIFO dispatch over
// runnable VCPUs and bandwidth-sum admission control.
type clSched struct {
	h     *hv.Host
	ready []*hv.VCPU
	// resv mirrors the reservations granted via hypercall.
	resv map[*hv.VCPU]hv.Reservation
}

func (s *clSched) Name() string                      { return "cl-test" }
func (s *clSched) Attach(h *hv.Host)                 { s.h = h; s.resv = map[*hv.VCPU]hv.Reservation{} }
func (s *clSched) Start(simtime.Time)                {}
func (s *clSched) AdmitVCPU(v *hv.VCPU) error        { return nil }
func (s *clSched) RemoveVCPU(*hv.VCPU, simtime.Time) {}

func (s *clSched) UpdateVCPU(v *hv.VCPU, r hv.Reservation, _ simtime.Time) error {
	v.Res = r
	return nil
}

func (s *clSched) totalBW(except *hv.VCPU) float64 {
	var sum float64
	for v, r := range s.resv {
		if v != except {
			sum += r.Bandwidth()
		}
	}
	return sum
}

func (s *clSched) HandleHypercall(hc hv.Hypercall, now simtime.Time) error {
	switch hc.Flag {
	case hv.IncBW:
		if s.totalBW(hc.VCPU)+hc.Res.Bandwidth() > float64(s.h.NumPCPUs())+1e-9 {
			return fmt.Errorf("%w: over capacity", hv.ErrAdmission)
		}
		s.resv[hc.VCPU] = hc.Res
		hc.VCPU.Res = hc.Res
	case hv.DecBW:
		s.resv[hc.VCPU] = hc.Res
		hc.VCPU.Res = hc.Res
	case hv.IncDecBW:
		avail := float64(s.h.NumPCPUs()) - s.totalBW(hc.VCPU) + s.resv[hc.Dec].Bandwidth() - hc.DecRes.Bandwidth()
		if hc.Res.Bandwidth() > avail+1e-9 {
			return fmt.Errorf("%w: over capacity", hv.ErrAdmission)
		}
		s.resv[hc.VCPU] = hc.Res
		hc.VCPU.Res = hc.Res
		s.resv[hc.Dec] = hc.DecRes
		hc.Dec.Res = hc.DecRes
	}
	return nil
}

func (s *clSched) VCPUWake(v *hv.VCPU, now simtime.Time) {
	s.ready = append(s.ready, v)
	for _, p := range s.h.PCPUs() {
		if p.Current() == nil {
			s.h.Kick(p, now)
			return
		}
	}
}

func (s *clSched) VCPUIdle(v *hv.VCPU, now simtime.Time) {
	for i, r := range s.ready {
		if r == v {
			s.ready = append(s.ready[:i], s.ready[i+1:]...)
			return
		}
	}
}

func (s *clSched) Schedule(p *hv.PCPU, now simtime.Time) hv.Decision {
	for _, v := range s.ready {
		if v.Runnable() && (v.OnPCPU() == nil || v.OnPCPU() == p) {
			return hv.Decision{VCPU: v, RunFor: simtime.Millis(100), Work: len(s.ready)}
		}
	}
	return hv.Decision{RunFor: simtime.Infinite}
}

func setup(t testing.TB, pcpus, vcpus int, cfg Config) (*sim.Simulator, *hv.Host, *OS) {
	t.Helper()
	s := sim.New(7)
	h := hv.NewHost(s, pcpus, &clSched{}, hv.CostModel{})
	g, err := NewOS(h, "vm0", cfg, vcpus)
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	return s, h, g
}

func pp(s, p int64) task.Params {
	return task.Params{Slice: simtime.Millis(s), Period: simtime.Millis(p)}
}

// keepDone points *dst at a copy of each of tk's finished jobs, taken in
// OnJobDone: the guest reuses a job's record once its completion has been
// handled, so the pointer ReleaseJob returned is stale by then.
func keepDone(tk *task.Task, dst **task.Job) {
	tk.OnJobDone = func(j *task.Job) {
		c := *j
		*dst = &c
	}
}

func TestReadyQueueEDFOrder(t *testing.T) {
	q := &readyQueue{}
	tk := task.New(0, "t", task.Periodic, pp(1, 100))
	j1 := tk.Release(0, simtime.Millis(1))                                // deadline 100ms
	j2 := tk.Release(simtime.Time(simtime.Millis(10)), simtime.Millis(1)) // deadline 110ms
	tk2 := task.New(1, "u", task.Periodic, pp(1, 50))
	j3 := tk2.Release(simtime.Time(simtime.Millis(20)), simtime.Millis(1)) // deadline 70ms
	q.Push(j1)
	q.Push(j2)
	q.Push(j3)
	if q.Head() != j3 {
		t.Fatal("EDF head should be the earliest deadline")
	}
	q.Remove(j3)
	if q.Head() != j1 {
		t.Fatal("after removal, next earliest should lead")
	}
	if len(q.items) != 2 {
		t.Fatalf("Len = %d, want 2", len(q.items))
	}
	if q.Remove(j3) {
		t.Fatal("Remove of absent job should report false")
	}
}

func TestReadyQueueFIFOTie(t *testing.T) {
	q := &readyQueue{}
	tk := task.New(0, "t", task.Periodic, pp(1, 100))
	tk2 := task.New(1, "u", task.Periodic, pp(1, 100))
	a := tk.Release(0, simtime.Millis(1))
	b := tk2.Release(0, simtime.Millis(1))
	q.Push(a)
	q.Push(b)
	if q.Head() != a {
		t.Fatal("equal deadlines must serve in insertion order")
	}
}

func TestReadyQueueDoublePushPanics(t *testing.T) {
	q := &readyQueue{}
	tk := task.New(0, "t", task.Periodic, pp(1, 100))
	j := tk.Release(0, simtime.Millis(1))
	q.Push(j)
	defer func() {
		if recover() == nil {
			t.Fatal("double push did not panic")
		}
	}()
	q.Push(j)
}

func TestRegisterDerivesReservation(t *testing.T) {
	_, _, g := setup(t, 2, 1, DefaultConfig())
	tk := task.New(0, "rta", task.Periodic, pp(5, 10))
	if err := g.Register(tk); err != nil {
		t.Fatal(err)
	}
	v := g.VM().VCPUs[0]
	// §3.3: budget = Σbw × min-period + slack = 5ms + 0.5ms on a 10ms period.
	want := hv.Reservation{Budget: simtime.Millis(5) + simtime.Micros(500), Period: simtime.Millis(10)}
	if v.Res != want {
		t.Fatalf("reservation = %v, want %v", v.Res, want)
	}
	if g.TaskVCPU(tk) != 0 || g.VCPUBandwidth(0) != 0.5 {
		t.Fatal("pinning wrong")
	}
}

func TestRegisterSecondTaskSameVCPU(t *testing.T) {
	_, _, g := setup(t, 2, 1, DefaultConfig())
	t1 := task.New(0, "a", task.Periodic, pp(5, 20)) // bw .25
	t2 := task.New(1, "b", task.Periodic, pp(5, 10)) // bw .5
	if err := g.Register(t1); err != nil {
		t.Fatal(err)
	}
	if err := g.Register(t2); err != nil {
		t.Fatal(err)
	}
	v := g.VM().VCPUs[0]
	// min period 10ms, Σbw = 0.75 → budget 7.5ms + 0.5ms slack.
	want := hv.Reservation{Budget: simtime.Micros(8000), Period: simtime.Millis(10)}
	if v.Res != want {
		t.Fatalf("reservation = %v, want %v", v.Res, want)
	}
}

func TestRegisterSpillsToSecondVCPU(t *testing.T) {
	_, _, g := setup(t, 2, 2, DefaultConfig())
	t1 := task.New(0, "a", task.Periodic, pp(7, 10)) // bw .7
	t2 := task.New(1, "b", task.Periodic, pp(6, 10)) // bw .6, doesn't fit with t1
	if err := g.Register(t1); err != nil {
		t.Fatal(err)
	}
	if err := g.Register(t2); err != nil {
		t.Fatal(err)
	}
	if g.TaskVCPU(t1) == g.TaskVCPU(t2) {
		t.Fatal("1.3 CPUs of tasks must land on different VCPUs")
	}
}

func TestRegisterRejectedByHost(t *testing.T) {
	_, _, g := setup(t, 1, 1, DefaultConfig())
	t1 := task.New(0, "a", task.Periodic, pp(9, 10))
	if err := g.Register(t1); err != nil {
		t.Fatal(err)
	}
	// A second VM-less task on the same 1-PCPU host: another guest would
	// normally contend; here we overfill via a second VCPU on same guest.
	g2cfg := DefaultConfig()
	g2cfg.MaxVCPUs = 2
	// Second task needs its own VCPU (0.9+0.6 > 1); host has only 1 CPU so
	// the hypercall must be rejected.
	t2 := task.New(1, "b", task.Periodic, pp(6, 10))
	err := g.Register(t2)
	if !errors.Is(err, ErrNoCapacity) && !errors.Is(err, ErrHostRejected) {
		t.Fatalf("err = %v, want capacity rejection", err)
	}
}

func TestHotplugOnDemand(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxVCPUs = 3
	_, _, g := setup(t, 4, 1, cfg)
	for i := 0; i < 3; i++ {
		tk := task.New(i, fmt.Sprintf("t%d", i), task.Periodic, pp(8, 10))
		if err := g.Register(tk); err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
	}
	if g.NumVCPUs() != 3 {
		t.Fatalf("NumVCPUs = %d, want 3 (hotplug)", g.NumVCPUs())
	}
}

func TestSetAttrDecrease(t *testing.T) {
	_, h, g := setup(t, 2, 1, DefaultConfig())
	tk := task.New(0, "a", task.Periodic, pp(8, 10))
	if err := g.Register(tk); err != nil {
		t.Fatal(err)
	}
	before := h.Overhead.Hypercalls
	if err := g.SetAttr(tk, pp(2, 10)); err != nil {
		t.Fatal(err)
	}
	if g.VCPUBandwidth(0) != 0.2 {
		t.Fatalf("bandwidth = %g, want 0.2", g.VCPUBandwidth(0))
	}
	want := hv.Reservation{Budget: simtime.Millis(2) + simtime.Micros(500), Period: simtime.Millis(10)}
	if g.VM().VCPUs[0].Res != want {
		t.Fatalf("reservation = %v, want %v", g.VM().VCPUs[0].Res, want)
	}
	if h.Overhead.Hypercalls != before+1 {
		t.Fatal("DEC_BW hypercall not made")
	}
}

func TestSetAttrIncreaseInPlace(t *testing.T) {
	_, _, g := setup(t, 2, 1, DefaultConfig())
	tk := task.New(0, "a", task.Periodic, pp(2, 10))
	if err := g.Register(tk); err != nil {
		t.Fatal(err)
	}
	if err := g.SetAttr(tk, pp(9, 10)); err != nil {
		t.Fatal(err)
	}
	if g.VCPUBandwidth(0) != 0.9 {
		t.Fatalf("bandwidth = %g, want 0.9", g.VCPUBandwidth(0))
	}
}

func TestSetAttrMovesToAnotherVCPU(t *testing.T) {
	_, _, g := setup(t, 3, 2, DefaultConfig())
	a := task.New(0, "a", task.Periodic, pp(6, 10))
	b := task.New(1, "b", task.Periodic, pp(3, 10))
	if err := g.Register(a); err != nil {
		t.Fatal(err)
	}
	if err := g.Register(b); err != nil {
		t.Fatal(err)
	}
	if g.TaskVCPU(a) != 0 || g.TaskVCPU(b) != 0 {
		t.Fatal("both should fit on vcpu0 initially")
	}
	// Grow b to 0.8: no longer fits beside a (0.6) → INC_DEC_BW move.
	if err := g.SetAttr(b, pp(8, 10)); err != nil {
		t.Fatal(err)
	}
	if g.TaskVCPU(b) != 1 {
		t.Fatalf("b on vcpu %d, want 1", g.TaskVCPU(b))
	}
	if g.VCPUBandwidth(0) != 0.6 || g.VCPUBandwidth(1) != 0.8 {
		t.Fatalf("bandwidths = %g,%g", g.VCPUBandwidth(0), g.VCPUBandwidth(1))
	}
}

func TestUnregisterFreesBandwidth(t *testing.T) {
	s, _, g := setup(t, 2, 1, DefaultConfig())
	tk := task.New(0, "a", task.Periodic, pp(5, 10))
	if err := g.Register(tk); err != nil {
		t.Fatal(err)
	}
	g.StartPeriodic(tk, 0)
	s.RunFor(simtime.Millis(25))
	if err := g.Unregister(tk); err != nil {
		t.Fatal(err)
	}
	if g.VCPUBandwidth(0) != 0 {
		t.Fatalf("bandwidth = %g, want 0", g.VCPUBandwidth(0))
	}
	if err := g.Unregister(tk); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("second unregister err = %v, want ErrUnknownTask", err)
	}
	s.RunFor(simtime.Millis(50))
	if got := tk.Stats().Released; got != 3 {
		t.Fatalf("releases after unregister: %d, want 3 (0,10,20ms)", got)
	}
}

func TestPeriodicReleasesAndEDFExecution(t *testing.T) {
	s, _, g := setup(t, 1, 1, DefaultConfig())
	tk := task.New(0, "a", task.Periodic, pp(2, 10))
	if err := g.Register(tk); err != nil {
		t.Fatal(err)
	}
	g.StartPeriodic(tk, 0)
	s.RunFor(simtime.Seconds(1))
	st := tk.Stats()
	if st.Released != 101 { // t=0..1000ms inclusive
		t.Fatalf("released = %d, want 101", st.Released)
	}
	if st.Completed < 100 || st.Missed != 0 {
		t.Fatalf("completed=%d missed=%d, want ≥100 and 0", st.Completed, st.Missed)
	}
}

func TestEDFPreemptionWithinVCPU(t *testing.T) {
	s, _, g := setup(t, 1, 1, DefaultConfig())
	long := task.New(0, "long", task.Periodic, pp(40, 100))
	short := task.New(1, "short", task.Periodic, pp(1, 10))
	if err := g.Register(long); err != nil {
		t.Fatal(err)
	}
	if err := g.Register(short); err != nil {
		t.Fatal(err)
	}
	g.StartPeriodic(long, 0)
	g.StartPeriodic(short, 0)
	s.RunFor(simtime.Seconds(1))
	// Under EDF both are schedulable (U = 0.5); the short task must preempt
	// the long one to meet its 10ms deadlines.
	if m := short.Stats().Missed; m != 0 {
		t.Fatalf("short task missed %d deadlines under EDF", m)
	}
	if m := long.Stats().Missed; m != 0 {
		t.Fatalf("long task missed %d deadlines under EDF", m)
	}
}

func TestDeadlineSlotPublication(t *testing.T) {
	s, _, g := setup(t, 1, 1, DefaultConfig())
	tk := task.New(0, "a", task.Periodic, pp(2, 10))
	if err := g.Register(tk); err != nil {
		t.Fatal(err)
	}
	v := g.VM().VCPUs[0]
	if v.DeadlineSlot != simtime.Never {
		t.Fatal("slot before any release should be Never")
	}
	g.StartPeriodic(tk, simtime.Time(simtime.Millis(5)))
	// Before the first release the next boundary is the release itself at
	// 5ms — a slice must not span a release, or the task's allocation can
	// land before its job arrives.
	if v.DeadlineSlot != simtime.Time(simtime.Millis(5)) {
		t.Fatalf("slot = %v, want 5ms", v.DeadlineSlot)
	}
	s.RunFor(simtime.Millis(5))
	// After the release at 5ms: pending deadline = next release = 15ms.
	if v.DeadlineSlot != simtime.Time(simtime.Millis(15)) {
		t.Fatalf("slot = %v, want 15ms", v.DeadlineSlot)
	}
	s.RunFor(simtime.Millis(3)) // job (2ms) completed by 8ms; next boundary 15ms
	if v.DeadlineSlot != simtime.Time(simtime.Millis(15)) {
		t.Fatalf("slot after completion = %v, want 15ms", v.DeadlineSlot)
	}
}

func TestSporadicFloorPublication(t *testing.T) {
	_, _, g := setup(t, 1, 1, DefaultConfig())
	sp := task.New(0, "sp", task.Sporadic, pp(2, 50))
	if err := g.Register(sp); err != nil {
		t.Fatal(err)
	}
	v := g.VM().VCPUs[0]
	if v.SporadicFloor != simtime.Millis(50) {
		t.Fatalf("floor = %v, want 50ms", v.SporadicFloor)
	}
	sp2 := task.New(1, "sp2", task.Sporadic, pp(1, 20))
	if err := g.Register(sp2); err != nil {
		t.Fatal(err)
	}
	if v.SporadicFloor != simtime.Millis(20) {
		t.Fatalf("floor = %v, want 20ms (minimum)", v.SporadicFloor)
	}
	if err := g.Unregister(sp2); err != nil {
		t.Fatal(err)
	}
	if v.SporadicFloor != simtime.Millis(50) {
		t.Fatalf("floor after unregister = %v, want 50ms", v.SporadicFloor)
	}
}

func TestSporadicReleaseRunsJob(t *testing.T) {
	s, _, g := setup(t, 1, 1, DefaultConfig())
	sp := task.New(0, "sp", task.Sporadic, pp(2, 50))
	if err := g.Register(sp); err != nil {
		t.Fatal(err)
	}
	var j *task.Job
	keepDone(sp, &j)
	g.ReleaseAt(sp, s.Now().Add(simtime.Millis(10)), 0)
	s.RunFor(simtime.Millis(20))
	if j == nil || !j.Done || j.Finish != simtime.Time(simtime.Millis(12)) {
		t.Fatalf("sporadic job state: %+v", j)
	}
}

func TestBackgroundRegisterNoAdmission(t *testing.T) {
	_, _, g := setup(t, 1, 1, DefaultConfig())
	bg := task.NewBackground(0, "bg")
	if err := g.Register(bg); err != nil {
		t.Fatal(err)
	}
	if g.VCPUBandwidth(0) != 0 {
		t.Fatal("background task consumed RT bandwidth")
	}
}

func TestReshuffleDefragments(t *testing.T) {
	// vcpu0: 0.5; vcpu1: 0.5. New task 0.6 fits nowhere, but repacking
	// 0.5+0.5 onto vcpu0 frees vcpu1 entirely.
	fragmentThenAdd := func(cfg Config) (*OS, error) {
		_, _, g := setup(t, 4, 2, cfg)
		a := task.New(0, "a", task.Periodic, pp(5, 10))
		b := task.New(1, "b", task.Periodic, pp(5, 10))
		if err := g.Register(a); err != nil {
			t.Fatal(err)
		}
		// Force b onto vcpu1 to create fragmentation.
		if err := g.RegisterOn(b, 1); err != nil {
			t.Fatal(err)
		}
		return g, g.Register(task.New(2, "c", task.Periodic, pp(6, 10)))
	}
	g, err := fragmentThenAdd(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// c (0.6) must coexist: the packing is {a,b} or {a,c} etc.; total 1.6
	// over 2 VCPUs. Verify no VCPU exceeds capacity.
	for i := 0; i < g.NumVCPUs(); i++ {
		if g.VCPUBandwidth(i) > 1.0+1e-9 {
			t.Fatalf("vcpu%d over capacity: %g", i, g.VCPUBandwidth(i))
		}
	}
	total := g.VCPUBandwidth(0) + g.VCPUBandwidth(1)
	if total < 1.6-1e-9 || total > 1.6+1e-9 {
		t.Fatalf("total bandwidth = %g, want 1.6", total)
	}

	// A static guest's VCPUs are fixed offline: it never repacks, so the
	// same request fails and the fragmented placement stays as it was.
	g, err = fragmentThenAdd(Config{CrossLayer: false, VCPUCapacity: 1.0})
	if !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("static guest: err = %v, want ErrNoCapacity", err)
	}
	if b0, b1 := g.VCPUBandwidth(0), g.VCPUBandwidth(1); b0 != 0.5 || b1 != 0.5 {
		t.Fatalf("static guest repacked: vcpu bandwidths %g, %g, want 0.5, 0.5", b0, b1)
	}
}

func TestRegisterErrors(t *testing.T) {
	_, _, g := setup(t, 2, 1, DefaultConfig())
	tk := task.New(0, "a", task.Periodic, pp(5, 10))
	if err := g.Register(tk); err != nil {
		t.Fatal(err)
	}
	if err := g.Register(tk); !errors.Is(err, ErrAlreadyRegister) {
		t.Fatalf("double register err = %v", err)
	}
	if err := g.SetAttr(task.New(9, "x", task.Periodic, pp(1, 10)), pp(1, 10)); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("SetAttr unknown err = %v", err)
	}
}

func TestAllocatedBandwidth(t *testing.T) {
	_, _, g := setup(t, 2, 1, DefaultConfig())
	tk := task.New(0, "a", task.Periodic, pp(5, 10))
	if err := g.Register(tk); err != nil {
		t.Fatal(err)
	}
	want := (5.0 + 0.5) / 10.0
	if got := g.AllocatedBandwidth(); got != want {
		t.Fatalf("AllocatedBandwidth = %g, want %g", got, want)
	}
}

func TestSetDemand(t *testing.T) {
	s, _, g := setup(t, 1, 1, DefaultConfig())
	sp := task.New(0, "sp", task.Sporadic, pp(10, 100))
	if err := g.Register(sp); err != nil {
		t.Fatal(err)
	}
	g.SetDemand(sp, simtime.Millis(3))
	var j *task.Job
	keepDone(sp, &j)
	g.ReleaseAt(sp, s.Now(), 0)
	s.RunFor(simtime.Millis(5))
	if j.Demand != simtime.Millis(3) {
		t.Fatalf("demand = %v, want 3ms from SetDemand", j.Demand)
	}
}

func TestSetAttrTriggersReshuffle(t *testing.T) {
	cfg := DefaultConfig()
	_, _, g := setup(t, 4, 2, cfg)
	// vcpu0: {a, b} = 0.85 with slack; vcpu1: {c} = 0.45.
	a := task.New(0, "a", task.Periodic, pp(4, 10))
	b := task.New(1, "b", task.Periodic, pp(4, 10))
	c := task.New(2, "c", task.Periodic, pp(4, 10))
	if err := g.Register(a); err != nil {
		t.Fatal(err)
	}
	if err := g.Register(b); err != nil {
		t.Fatal(err)
	}
	if err := g.RegisterOn(c, 1); err != nil {
		t.Fatal(err)
	}
	// Growing a to 0.9 fits neither VCPU as-is (0.9+0.4 anywhere > 1);
	// only the repack {a} / {b, c} admits it.
	if err := g.SetAttr(a, pp(9, 10)); err != nil {
		t.Fatalf("SetAttr with reshuffle: %v", err)
	}
	if got := a.Params(); got != pp(9, 10) {
		t.Fatalf("params not applied: %v", got)
	}
	for i := 0; i < g.NumVCPUs(); i++ {
		if bw := g.VCPUBandwidth(i); bw > 1.0+1e-9 {
			t.Fatalf("vcpu%d over capacity after reshuffle: %g", i, bw)
		}
	}
	// VCPUBandwidth sums task bandwidths: {a} = 0.9 and {b, c} = 0.8.
	total := g.VCPUBandwidth(0) + g.VCPUBandwidth(1)
	if total < 1.7-1e-9 || total > 1.7+1e-9 {
		t.Fatalf("total bandwidth = %g, want 1.70", total)
	}

	// Growing b to 0.9 as well cannot be packed at all (0.9+0.9+0.4 over
	// two VCPUs): SetAttr must fail atomically, leaving b untouched.
	if err := g.SetAttr(b, pp(9, 10)); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("impossible SetAttr err = %v", err)
	}
	if got := b.Params(); got != pp(4, 10) {
		t.Fatalf("failed SetAttr mutated params: %v", got)
	}
	total = g.VCPUBandwidth(0) + g.VCPUBandwidth(1)
	if total < 1.7-1e-9 || total > 1.7+1e-9 {
		t.Fatalf("failed SetAttr changed reservations: %g", total)
	}
}

// TestReleaseJobNeedsRegistration pins ReleaseJob's registration check,
// which finds the task through the owner ID the task carries: a task
// never registered, registered only with another guest, or unregistered
// again panics, and a task registered with two guests releases on each.
func TestReleaseJobNeedsRegistration(t *testing.T) {
	_, h, g := setup(t, 2, 1, DefaultConfig())
	other, err := NewOS(h, "vm1", DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(what string, g *OS, tk *task.Task) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("ReleaseJob on a task %s did not panic", what)
			}
		}()
		g.ReleaseJob(tk, 0)
	}
	never := task.New(0, "never", task.Sporadic, pp(1, 50))
	mustPanic("never registered", g, never)
	elsewhere := task.New(1, "elsewhere", task.Sporadic, pp(1, 50))
	if err := other.Register(elsewhere); err != nil {
		t.Fatal(err)
	}
	mustPanic("registered with another guest", g, elsewhere)
	both := task.New(2, "both", task.Sporadic, pp(1, 50))
	if err := g.Register(both); err != nil {
		t.Fatal(err)
	}
	if err := other.Register(both); err != nil {
		t.Fatal(err)
	}
	if j := g.ReleaseJob(both, 0); j == nil || j.Task != both {
		t.Fatalf("release on the first of two guests returned %+v", j)
	}
	if err := other.Unregister(both); err != nil {
		t.Fatal(err)
	}
	mustPanic("unregistered from the guest", other, both)
	if j := g.ReleaseJob(both, 0); j == nil {
		t.Fatal("release after leaving the other guest returned no job")
	}
	if err := g.Unregister(both); err != nil {
		t.Fatal(err)
	}
	mustPanic("unregistered from every guest", g, both)
}
