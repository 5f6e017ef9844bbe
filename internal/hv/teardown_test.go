package hv

import (
	"testing"

	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
	"rtvirt/internal/trace"
)

// countSink counts dispatch and completion events off the bus.
type countSink struct {
	dispatches int
	done       int
}

func (c *countSink) Consume(ev trace.Event) {
	switch ev.Kind {
	case trace.Dispatch:
		c.dispatches++
	case trace.JobDone:
		c.done++
	}
}

func TestSchedulerAccessor(t *testing.T) {
	_, h, sched := testHost(t, 1, CostModel{})
	if h.Scheduler() != sched {
		t.Fatal("Scheduler() did not return the attached scheduler")
	}
}

func TestTracerReceivesEvents(t *testing.T) {
	s, h, _ := testHost(t, 1, CostModel{})
	tr := &countSink{}
	h.TraceTo(tr)
	g := newFifoGuest(h)
	vm := h.NewVM("vm0", g)
	v, _ := vm.AddVCPU(true, Reservation{}, 0)
	h.Start()
	tk := task.New(0, "t", task.Periodic, task.Params{Slice: simtime.Millis(1), Period: simtime.Millis(10)})
	callAfter(s, simtime.Millis(1), func(now simtime.Time) {
		g.submit(v, tk.Release(now, simtime.Millis(1)), now)
	})
	s.RunFor(simtime.Millis(20))
	if tr.dispatches == 0 || tr.done != 1 {
		t.Fatalf("tracer saw dispatches=%d done=%d", tr.dispatches, tr.done)
	}
	// Detaching all sinks must stop the stream.
	h.Bus().Reset()
	before := tr.done
	callAfter(s, 0, func(now simtime.Time) {
		g.submit(v, tk.Release(now, simtime.Millis(1)), now)
	})
	s.RunFor(simtime.Millis(20))
	if tr.done != before {
		t.Fatalf("sink still active after Bus().Reset()")
	}
}

func TestVMTotalRun(t *testing.T) {
	s, h, _ := testHost(t, 2, CostModel{})
	g := newFifoGuest(h)
	vm := h.NewVM("vm0", g)
	v0, _ := vm.AddVCPU(true, Reservation{}, 0)
	v1, _ := vm.AddVCPU(true, Reservation{}, 0)
	h.Start()
	t0 := task.New(0, "a", task.Periodic, task.Params{Slice: simtime.Millis(3), Period: simtime.Millis(100)})
	t1 := task.New(1, "b", task.Periodic, task.Params{Slice: simtime.Millis(5), Period: simtime.Millis(100)})
	callAfter(s, 0, func(now simtime.Time) {
		g.submit(v0, t0.Release(now, simtime.Millis(3)), now)
		g.submit(v1, t1.Release(now, simtime.Millis(5)), now)
	})
	s.RunFor(simtime.Millis(50))
	h.Sync()
	if got := vm.TotalRun(); got != simtime.Millis(8) {
		t.Fatalf("TotalRun = %v, want 8ms", got)
	}
}

func TestAllocEndDuringDispatch(t *testing.T) {
	s, h, _ := testHost(t, 1, CostModel{}) // fifo quantum is 10ms
	g := newFifoGuest(h)
	vm := h.NewVM("vm0", g)
	v, _ := vm.AddVCPU(true, Reservation{}, 0)
	h.Start()
	tk := task.New(0, "t", task.Periodic, task.Params{Slice: simtime.Millis(8), Period: simtime.Millis(100)})
	callAfter(s, 0, func(now simtime.Time) {
		g.submit(v, tk.Release(now, simtime.Millis(8)), now)
	})
	var allocEnd simtime.Time
	callAt(s, simtime.Time(simtime.Millis(4)), func(now simtime.Time) {
		allocEnd = h.PCPUs()[0].AllocEnd()
	})
	s.RunFor(simtime.Millis(50))
	// Dispatched at t=0 with the fifo scheduler's 10ms quantum.
	if allocEnd != simtime.Time(simtime.Millis(10)) {
		t.Fatalf("AllocEnd = %v, want 10ms", allocEnd)
	}
}

func TestRemoveVMWhileRunning(t *testing.T) {
	s, h, _ := testHost(t, 1, CostModel{})
	g := newFifoGuest(h)
	vm1 := h.NewVM("doomed", g)
	v1, _ := vm1.AddVCPU(true, Reservation{}, 0)
	vm2 := h.NewVM("survivor", g)
	v2, _ := vm2.AddVCPU(true, Reservation{}, 0)
	h.Start()

	t1 := task.New(0, "doomed-t", task.Periodic, task.Params{Slice: simtime.Millis(20), Period: simtime.Millis(100)})
	t2 := task.New(1, "survivor-t", task.Periodic, task.Params{Slice: simtime.Millis(2), Period: simtime.Millis(100)})
	callAfter(s, 0, func(now simtime.Time) {
		g.submit(v1, t1.Release(now, simtime.Millis(20)), now)
		g.submit(v2, t2.Release(now, simtime.Millis(2)), now)
	})
	// vm1 occupies the single PCPU; tear it down mid-job.
	callAt(s, simtime.Time(simtime.Millis(5)), func(now simtime.Time) {
		g.queues[v1] = nil // guest forgets the doomed queue first
		h.RemoveVM(vm1)
	})
	s.RunFor(simtime.Millis(100))

	if len(h.VMs()) != 1 || h.VMs()[0] != vm2 {
		t.Fatalf("VMs after removal: %v", h.VMs())
	}
	if len(h.VCPUs()) != 1 || h.VCPUs()[0] != v2 {
		t.Fatalf("VCPUs after removal: %v", h.VCPUs())
	}
	st1 := t1.Stats()
	if st1.Abandoned != 1 || st1.Completed != 0 {
		t.Fatalf("doomed task stats: %+v", st1)
	}
	// The survivor must have been re-dispatched onto the freed PCPU.
	if st2 := t2.Stats(); st2.Completed != 1 {
		t.Fatalf("survivor stats: %+v", st2)
	}
	// The doomed VCPU ran 5ms before teardown; accounting must retain it.
	h.Sync()
	if v1.TotalRun != simtime.Millis(5) {
		t.Fatalf("doomed TotalRun = %v, want 5ms", v1.TotalRun)
	}
}

func TestRemoveVMIdle(t *testing.T) {
	s, h, _ := testHost(t, 1, CostModel{})
	g := newFifoGuest(h)
	vm := h.NewVM("idle", g)
	_, _ = vm.AddVCPU(true, Reservation{}, 0)
	h.Start()
	s.RunFor(simtime.Millis(1))
	h.RemoveVM(vm)
	if len(h.VMs()) != 0 || len(h.VCPUs()) != 0 {
		t.Fatalf("host not empty: vms=%d vcpus=%d", len(h.VMs()), len(h.VCPUs()))
	}
	// The host keeps running fine afterwards.
	s.RunFor(simtime.Millis(10))
}

// prioGuest picks the lowest-priority-number job first, so a new urgent
// job plus VCPURecheck forces an in-place guest preemption.
type prioGuest struct {
	h      *Host
	queues map[*VCPU][]*task.Job
	prio   map[*task.Job]int
	done   []*task.Job
}

func newPrioGuest(h *Host) *prioGuest {
	return &prioGuest{h: h, queues: map[*VCPU][]*task.Job{}, prio: map[*task.Job]int{}}
}

func (g *prioGuest) PickJob(v *VCPU, now simtime.Time) *task.Job {
	q := g.queues[v]
	if len(q) == 0 {
		return nil
	}
	best := q[0]
	for _, j := range q[1:] {
		if g.prio[j] < g.prio[best] {
			best = j
		}
	}
	return best
}

func (g *prioGuest) JobCompleted(v *VCPU, j *task.Job, now simtime.Time) {
	q := g.queues[v]
	for i, x := range q {
		if x == j {
			g.queues[v] = append(q[:i], q[i+1:]...)
			break
		}
	}
	g.done = append(g.done, j)
}

func (g *prioGuest) submit(v *VCPU, j *task.Job, prio int, now simtime.Time) {
	g.queues[v] = append(g.queues[v], j)
	g.prio[j] = prio
	g.h.VCPUWake(v, now)
}

func TestVCPURecheckPreemptsGuestJob(t *testing.T) {
	costs := CostModel{GuestSwitch: ConstCost(simtime.Micros(3))}
	s, h, _ := testHost(t, 1, costs)
	g := newPrioGuest(h)
	vm := h.NewVM("vm0", g)
	v, _ := vm.AddVCPU(true, Reservation{}, 0)
	h.Start()

	slow := task.New(0, "slow", task.Periodic, task.Params{Slice: simtime.Millis(10), Period: simtime.Millis(100)})
	urgent := task.New(1, "urgent", task.Periodic, task.Params{Slice: simtime.Millis(1), Period: simtime.Millis(100)})
	callAfter(s, 0, func(now simtime.Time) {
		g.submit(v, slow.Release(now, simtime.Millis(10)), 5, now)
	})
	callAt(s, simtime.Time(simtime.Millis(2)), func(now simtime.Time) {
		g.submit(v, urgent.Release(now, simtime.Millis(1)), 1, now)
		h.VCPURecheck(v, now)
	})
	s.RunFor(simtime.Millis(50))

	if len(g.done) != 2 {
		t.Fatalf("completed %d jobs, want 2", len(g.done))
	}
	// The urgent job must finish first despite arriving second.
	if g.done[0].Task != urgent {
		t.Fatalf("first completion = %v", g.done[0].Task)
	}
	if h.Overhead.GuestSwitches == 0 {
		t.Fatal("guest preemption not charged as a guest switch")
	}
	// Urgent arrived at 2ms, 1ms of work plus the 3µs switch: done ≈3ms;
	// slow resumes and finishes around 11ms + switches.
	if f := g.done[0].Finish; f < simtime.Time(simtime.Millis(3)) || f > simtime.Time(simtime.Millis(3)+simtime.Micros(10)) {
		t.Fatalf("urgent finish = %v", f)
	}
}

func TestVCPURecheckIdlesEmptiedQueue(t *testing.T) {
	s, h, _ := testHost(t, 1, CostModel{})
	g := newPrioGuest(h)
	vm := h.NewVM("vm0", g)
	v, _ := vm.AddVCPU(true, Reservation{}, 0)
	vm2 := h.NewVM("vm1", g)
	w, _ := vm2.AddVCPU(true, Reservation{}, 0)
	h.Start()

	tk := task.New(0, "t", task.Periodic, task.Params{Slice: simtime.Millis(10), Period: simtime.Millis(100)})
	other := task.New(1, "o", task.Periodic, task.Params{Slice: simtime.Millis(1), Period: simtime.Millis(100)})
	var job *task.Job
	callAfter(s, 0, func(now simtime.Time) {
		job = tk.Release(now, simtime.Millis(10))
		g.submit(v, job, 1, now)
		g.submit(w, other.Release(now, simtime.Millis(1)), 1, now)
	})
	// The guest drops its only job (e.g. the task was killed) and pokes
	// the kernel: the VCPU must idle and the other VM take the PCPU.
	callAt(s, simtime.Time(simtime.Millis(2)), func(now simtime.Time) {
		g.queues[v] = nil
		job.Abandon(now)
		h.VCPURecheck(v, now)
	})
	s.RunFor(simtime.Millis(50))

	if st := other.Stats(); st.Completed != 1 {
		t.Fatalf("other VM never ran: %+v", st)
	}
	if st := tk.Stats(); st.Abandoned != 1 || st.Completed != 0 {
		t.Fatalf("dropped job stats: %+v", st)
	}
}

func TestVCPURecheckUndispatchedNoop(t *testing.T) {
	s, h, _ := testHost(t, 1, CostModel{})
	g := newPrioGuest(h)
	vm := h.NewVM("vm0", g)
	v, _ := vm.AddVCPU(true, Reservation{}, 0)
	h.Start()
	callAfter(s, simtime.Millis(1), func(now simtime.Time) {
		h.VCPURecheck(v, now) // not dispatched anywhere: must not panic
	})
	s.RunFor(simtime.Millis(10))
}
