package trace_test

import (
	"strings"
	"testing"

	"rtvirt/internal/guest"
	"rtvirt/internal/hv"
	"rtvirt/internal/sched/dpwrap"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
	"rtvirt/internal/trace"
)

// runTracedScenario drives a small RTVirt run with tracing for tests.
func runTracedScenario(t *testing.T) *trace.Recorder {
	t.Helper()
	s := sim.New(3)
	h := hv.NewHost(s, 1, dpwrap.New(dpwrap.DefaultConfig()), hv.CostModel{})
	rec := &trace.Recorder{}
	h.TraceTo(rec)
	g, err := guest.NewOS(h, "vm0", guest.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tk := task.New(0, "rta", task.Periodic, task.Params{Slice: ms(2), Period: ms(10)})
	if err := g.Register(tk); err != nil {
		t.Fatal(err)
	}
	h.Start()
	g.StartPeriodic(tk, 0)
	s.RunFor(simtime.Seconds(1))
	return rec
}

// End-to-end: trace a real RTVirt run and check dispatches and completions
// are recorded in time order.
func TestHostTracerEndToEnd(t *testing.T) {
	rec := runTracedScenario(t)

	var dispatches, done, miss, admits int
	var prev simtime.Time
	for _, r := range rec.Records() {
		if r.At < prev {
			t.Fatal("records out of order")
		}
		prev = r.At
		switch r.Kind {
		case trace.Dispatch:
			dispatches++
		case trace.JobDone:
			done++
			if r.Task != "rta" || r.VM != "vm0" {
				t.Fatalf("bad completion record: %+v", r)
			}
		case trace.JobMiss:
			miss++
		case trace.Admit:
			admits++
		}
	}
	if done != 100 {
		t.Fatalf("completions recorded = %d, want 100", done)
	}
	if miss != 0 {
		t.Fatalf("misses recorded = %d", miss)
	}
	if dispatches < 100 {
		t.Fatalf("dispatches recorded = %d, want ≥100", dispatches)
	}
	// The guest admits the task once; the verdict must be on the bus.
	if admits == 0 {
		t.Fatal("no admission events recorded")
	}
}

func TestTimeline(t *testing.T) {
	var r trace.Recorder
	r.Consume(trace.Event{At: 0, Kind: trace.Dispatch, PCPU: 0, VM: "vmA"})
	r.Consume(trace.Event{At: simtime.Time(ms(5)), Kind: trace.Dispatch, PCPU: 0, VM: "vmB"})
	out := r.Timeline(1, 0, simtime.Time(ms(10)), 10)
	if !strings.Contains(out, "pcpu0") {
		t.Fatalf("timeline missing pcpu row:\n%s", out)
	}
	// First half occupied by vmA ('A'), second by vmB ('B').
	if !strings.Contains(out, "A") || !strings.Contains(out, "B") {
		t.Fatalf("timeline content wrong:\n%s", out)
	}
	if r.Timeline(1, 0, 0, 10) != "" || r.Timeline(1, 0, 1, 0) != "" {
		t.Fatal("degenerate timeline should be empty")
	}
}
