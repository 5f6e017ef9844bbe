package trace_test

import (
	"bytes"
	"strings"
	"testing"

	"rtvirt/internal/core"
	"rtvirt/internal/hv"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
	"rtvirt/internal/trace"
)

func ms(n int64) simtime.Duration { return simtime.Millis(n) }

// digest streams evs through a Summary and closes it at the last event.
func digest(evs ...trace.Event) *trace.Summary {
	s := &trace.Summary{}
	for _, ev := range evs {
		s.Consume(ev)
	}
	s.Close(s.To)
	return s
}

func TestSummarizeHandBuiltTrace(t *testing.T) {
	// PCPU0: vm-a/0 runs 0–4ms, then vm-b/0 runs 4–10ms (a migration for
	// vm-b, which previously ran on PCPU1).
	s := digest(
		trace.Event{At: 0, Kind: trace.Dispatch, PCPU: 1, VM: "vm-b", VCPU: 0},
		trace.Event{At: 0, Kind: trace.Dispatch, PCPU: 0, VM: "vm-a", VCPU: 0},
		trace.Event{At: simtime.Time(ms(2)), Kind: trace.JobDone, PCPU: 1, VM: "vm-b", VCPU: 0, Task: "x"},
		trace.Event{At: simtime.Time(ms(2)), Kind: trace.Dispatch, PCPU: 1}, // idle
		trace.Event{At: simtime.Time(ms(4)), Kind: trace.Dispatch, PCPU: 0, VM: "vm-b", VCPU: 0},
		trace.Event{At: simtime.Time(ms(10)), Kind: trace.JobMiss, PCPU: 0, VM: "vm-b", VCPU: 0, Task: "x", Arg: int64(ms(1))},
	)
	if s.Window() != ms(10) {
		t.Fatalf("window = %v", s.Window())
	}
	a := s.VCPUs[trace.VCPUKey{VM: "vm-a", VCPU: 0}]
	if a == nil || a.Run != ms(4) || a.Migrations != 0 || a.Dispatches != 1 {
		t.Fatalf("vm-a: %+v", a)
	}
	b := s.VCPUs[trace.VCPUKey{VM: "vm-b", VCPU: 0}]
	// 2ms on PCPU1 plus 6ms on PCPU0 (closed at the final record).
	if b == nil || b.Run != ms(8) || b.Migrations != 1 || b.Dispatches != 2 {
		t.Fatalf("vm-b: %+v", b)
	}
	if b.Completions != 2 || b.Misses != 1 {
		t.Fatalf("vm-b jobs: %+v", b)
	}
	if s.PCPUs[0].Busy != ms(10) || s.PCPUs[1].Busy != ms(2) {
		t.Fatalf("pcpu busy: %+v", s.PCPUs)
	}
	if s.Migrations != 1 {
		t.Fatalf("migrations = %d", s.Migrations)
	}
	if got := s.Keys(); len(got) != 2 || got[0].String() != "vm-a/0" || got[1].String() != "vm-b/0" {
		t.Fatalf("keys = %v", got)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := digest()
	if len(s.VCPUs) != 0 || len(s.PCPUs) != 0 || s.Window() != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
}

// TestSummaryRunIntervals pins how Run integrates a dispatch stream: one
// VM's VCPUs are kept apart, idle gaps are not credited, a dispatch with
// no PCPU is ignored, and the runs still open at Close are settled at its
// instant, not at the last event.
func TestSummaryRunIntervals(t *testing.T) {
	at := func(n int64) simtime.Time { return simtime.Time(ms(n)) }
	ev := func(p int, n int64, vm string, vcpu int) trace.Event {
		return trace.Event{Kind: trace.Dispatch, PCPU: p, At: at(n), VM: vm, VCPU: vcpu}
	}
	s := &trace.Summary{}
	for _, e := range []trace.Event{
		ev(0, 0, "a", 0),
		ev(0, 10, "b", 0), // a/0 ran 0–10 on pcpu0
		ev(1, 5, "a", 1),  // a/1 runs 5–15 on pcpu1
		ev(1, 15, "", 0),  // pcpu1 idle from 15
		ev(-1, 16, "x", 0),
		{Kind: trace.JobDone, PCPU: 0, At: at(20), VM: "b"},
		ev(0, 30, "a", 0), // b/0 ran 10–30; a/0 runs again from 30
	} {
		s.Consume(e)
	}
	s.Close(at(40))

	run := func(vm string, vcpu int) simtime.Duration {
		if v := s.VCPUs[trace.VCPUKey{VM: vm, VCPU: vcpu}]; v != nil {
			return v.Run
		}
		return 0
	}
	for _, c := range []struct {
		vm   string
		vcpu int
		want simtime.Duration
	}{{"a", 0, ms(20)}, {"a", 1, ms(10)}, {"b", 0, ms(20)}, {"x", 0, 0}} {
		if got := run(c.vm, c.vcpu); got != c.want {
			t.Errorf("Run(%s/%d) = %v, want %v", c.vm, c.vcpu, got, c.want)
		}
	}
	if s.Window() != ms(40) || s.PCPUs[0].Busy != ms(40) || s.PCPUs[1].Busy != ms(10) {
		t.Errorf("window %v, busy %v / %v", s.Window(), s.PCPUs[0].Busy, s.PCPUs[1].Busy)
	}
}

// TestSummaryOpenRunsSettleAtClose: a run still open is credited only by
// Close, so a read before Close never counts time the trace did not see.
func TestSummaryOpenRunsSettleAtClose(t *testing.T) {
	s := &trace.Summary{}
	s.Consume(trace.Event{Kind: trace.Dispatch, PCPU: 0, At: 0, VM: "a"})
	s.Consume(trace.Event{Kind: trace.JobDone, PCPU: 0, At: simtime.Time(ms(3)), VM: "a"})
	k := trace.VCPUKey{VM: "a"}
	if got := s.VCPUs[k].Run; got != 0 {
		t.Fatalf("Run before Close = %v, want 0", got)
	}
	s.Close(simtime.Time(ms(5)))
	if got := s.VCPUs[k].Run; got != ms(5) {
		t.Fatalf("Run after Close(5ms) = %v, want 5ms", got)
	}
}

// The summary must agree with the kernel's own meters on a live run with
// zero overhead costs: trace-derived run time equals VCPU.TotalRun and
// trace-derived busy time equals PCPU.BusyTime.
func TestSummarizeMatchesKernelAccounting(t *testing.T) {
	cfg := core.DefaultConfig(core.RTVirt)
	cfg.PCPUs = 2
	cfg.Costs = hv.CostModel{} // zero overhead: trace and meters align
	sys := core.NewSystem(cfg)
	s := &trace.Summary{}
	sys.Host.TraceTo(s)
	g, err := sys.NewGuest("vm", 1)
	if err != nil {
		t.Fatal(err)
	}
	tk := task.New(0, "t", task.Periodic, task.Params{Slice: ms(2), Period: ms(10)})
	if err := g.Register(tk); err != nil {
		t.Fatal(err)
	}
	sys.Start()
	g.StartPeriodic(tk, 0)
	sys.Run(simtime.Seconds(1))
	sys.Host.Sync()
	s.Close(sys.Now())

	var traceBusy simtime.Duration
	for _, p := range s.PCPUs {
		traceBusy += p.Busy
	}
	var kernelBusy simtime.Duration
	for _, p := range sys.Host.PCPUs() {
		kernelBusy += p.BusyTime
	}
	if traceBusy != kernelBusy {
		t.Fatalf("trace busy %v vs kernel busy %v", traceBusy, kernelBusy)
	}
	if st := tk.Stats(); int(st.Completed) != sumCompletions(s) {
		t.Fatalf("trace completions %d vs task stats %+v", sumCompletions(s), st)
	}
}

func sumCompletions(s *trace.Summary) int {
	n := 0
	for _, v := range s.VCPUs {
		n += v.Completions
	}
	return n
}

func TestSummaryWrite(t *testing.T) {
	s := digest(
		trace.Event{At: 0, Kind: trace.Dispatch, PCPU: 0, VM: "vm", VCPU: 0},
		trace.Event{At: simtime.Time(ms(5)), Kind: trace.JobDone, PCPU: 0, VM: "vm", VCPU: 0},
	)
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"vm/0", "pcpu0", "host migrations: 0", "events: dispatch=1 job-done=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary output missing %q:\n%s", want, out)
		}
	}
}
