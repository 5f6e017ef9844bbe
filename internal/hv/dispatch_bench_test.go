package hv

import (
	"testing"
	"time"

	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// BenchmarkDispatch times the kernel's dispatch path: the PCPU timer
// event, advance, the context switch and migration bookkeeping, the guest
// pick and the re-armed timer. Two PCPUs round-robin three VCPUs whose
// jobs never finish, so every 10ms quantum on each PCPU ends in one
// Schedule call that switches VCPUs; an op is one quantum. ns/dispatch
// leaves the host scheduler out: after the run, as many fifoSched.Schedule
// calls as the run made are timed on the stopped host, and their time is
// subtracted before dividing by the calls.
func BenchmarkDispatch(b *testing.B) {
	s, h, sched := testHost(b, 2, CostModel{})
	g := newFifoGuest(h)
	vm := h.NewVM("vm0", g)
	var vs []*VCPU
	for i := 0; i < 3; i++ {
		v, err := vm.AddVCPU(true, Reservation{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		vs = append(vs, v)
	}
	h.Start()
	for i, v := range vs {
		tk := task.New(i, "hog", task.Periodic, task.Params{Slice: simtime.Millis(1), Period: simtime.Millis(10)})
		g.submit(v, tk.Release(0, simtime.Seconds(1<<30)), 0)
	}
	s.RunFor(simtime.Millis(100))

	calls := h.Overhead.ScheduleCalls
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunFor(sched.quantum)
	}
	b.StopTimer()
	n := h.Overhead.ScheduleCalls - calls
	if n == 0 {
		b.Fatal("no dispatches")
	}
	pcpus := h.PCPUs()
	now := s.Now()
	start := time.Now()
	for i := uint64(0); i < n; i++ {
		sched.Schedule(pcpus[i%uint64(len(pcpus))], now)
	}
	schedule := time.Since(start)
	b.ReportMetric(float64(b.Elapsed()-schedule)/float64(n), "ns/dispatch")
	b.ReportMetric(float64(n)/float64(b.N), "dispatches/op")
}
