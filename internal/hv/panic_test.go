package hv

import (
	"fmt"
	"testing"

	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// advance panics with typed values that format their message only when
// printed; these tests pin that both checks still fire with the message
// they printed as fmt.Sprintf strings.

func advancePanic(t *testing.T, h *Host, p *PCPU, now simtime.Time) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("advance did not panic")
		}
		msg = fmt.Sprint(r)
	}()
	h.advance(p, now)
	return ""
}

func TestAdvanceBackwardsPanicMessage(t *testing.T) {
	s, h, _ := testHost(t, 1, CostModel{})
	h.Start()
	s.RunFor(simtime.Millis(3))
	p := h.PCPUs()[0]
	h.advance(p, s.Now())
	want := "hv: advance backwards on pcpu0 (1ms < 3ms)"
	if got := advancePanic(t, h, p, simtime.Time(simtime.Millis(1))); got != want {
		t.Fatalf("panic %q, want %q", got, want)
	}
}

func TestJobOverrunPanicMessage(t *testing.T) {
	s, h, _ := testHost(t, 1, CostModel{})
	g := newFifoGuest(h)
	v, err := h.NewVM("vm0", g).AddVCPU(true, Reservation{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	tk := task.New(0, "t0", task.Periodic, task.Params{Slice: simtime.Millis(3), Period: simtime.Millis(100)})
	callAfter(s, simtime.Millis(1), func(now simtime.Time) {
		g.submit(v, tk.Release(now, simtime.Millis(3)), now)
	})
	s.RunFor(simtime.Millis(2))
	p := h.PCPUs()[0]
	j := v.CurrentJob()
	if p.Current() != v || j == nil {
		t.Fatal("the job is not running at 2ms")
	}
	// Run the job 1ns past its end from the last accounting point.
	end := simtime.Max(p.lastAdvance, p.overheadUntil).Add(j.Remaining)
	want := "hv: vm0.vcpu0 overran job by 1ns (events must be exact)"
	if got := advancePanic(t, h, p, end+1); got != want {
		t.Fatalf("panic %q, want %q", got, want)
	}
}
