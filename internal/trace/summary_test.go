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

func TestSummarizeHandBuiltTrace(t *testing.T) {
	rec := &trace.Recorder{}
	// PCPU0: vm-a/0 runs 0–4ms, then vm-b/0 runs 4–10ms (a migration for
	// vm-b, which previously ran on PCPU1).
	rec.Add(trace.Event{At: 0, Kind: trace.Dispatch, PCPU: 1, VM: "vm-b", VCPU: 0})
	rec.Add(trace.Event{At: 0, Kind: trace.Dispatch, PCPU: 0, VM: "vm-a", VCPU: 0})
	rec.Add(trace.Event{At: simtime.Time(ms(2)), Kind: trace.JobDone, PCPU: 1, VM: "vm-b", VCPU: 0, Task: "x"})
	rec.Add(trace.Event{At: simtime.Time(ms(2)), Kind: trace.Dispatch, PCPU: 1}) // idle
	rec.Add(trace.Event{At: simtime.Time(ms(4)), Kind: trace.Dispatch, PCPU: 0, VM: "vm-b", VCPU: 0})
	rec.Add(trace.Event{At: simtime.Time(ms(10)), Kind: trace.JobMiss, PCPU: 0, VM: "vm-b", VCPU: 0, Task: "x", Arg: int64(ms(1))})

	s := trace.Summarize(rec)
	if s.Window() != ms(10) {
		t.Fatalf("window = %v", s.Window())
	}
	a := s.VCPUs["vm-a/0"]
	if a == nil || a.Run != ms(4) || a.Migrations != 0 || a.Dispatches != 1 {
		t.Fatalf("vm-a: %+v", a)
	}
	b := s.VCPUs["vm-b/0"]
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
	if got := s.Keys(); len(got) != 2 || got[0] != "vm-a/0" || got[1] != "vm-b/0" {
		t.Fatalf("keys = %v", got)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := trace.Summarize(&trace.Recorder{})
	if len(s.VCPUs) != 0 || len(s.PCPUs) != 0 || s.Window() != 0 {
		t.Fatalf("empty summary: %+v", s)
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
	rec := &trace.Recorder{}
	sys.Host.TraceTo(rec)
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

	s := trace.Summarize(rec)
	var traceBusy simtime.Duration
	for _, p := range s.PCPUs {
		traceBusy += p.Busy
	}
	var kernelBusy simtime.Duration
	for _, p := range sys.Host.PCPUs() {
		kernelBusy += p.BusyTime
	}
	// The trace closes the last interval at its final record, which can
	// shave at most one period's worth of run; allow 1%.
	lo, hi := kernelBusy-kernelBusy/100, kernelBusy
	if traceBusy < lo || traceBusy > hi {
		t.Fatalf("trace busy %v vs kernel busy %v", traceBusy, kernelBusy)
	}
	if st := tk.Stats(); int(st.Completed) != sumCompletions(s) {
		t.Fatalf("trace completions %d vs task stats %+v", sumCompletions(s), st)
	}
}

func sumCompletions(s trace.Summary) int {
	n := 0
	for _, v := range s.VCPUs {
		n += v.Completions
	}
	return n
}

func TestSummaryWrite(t *testing.T) {
	rec := &trace.Recorder{}
	rec.Add(trace.Event{At: 0, Kind: trace.Dispatch, PCPU: 0, VM: "vm", VCPU: 0})
	rec.Add(trace.Event{At: simtime.Time(ms(5)), Kind: trace.JobDone, PCPU: 0, VM: "vm", VCPU: 0})
	var buf bytes.Buffer
	if err := trace.Summarize(rec).Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"vm/0", "pcpu0", "host migrations: 0", "events: dispatch=1 job-done=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "dropped:") {
		t.Fatalf("summary reports drops with no cap:\n%s", out)
	}
}

func TestSummaryWriteDropped(t *testing.T) {
	rec := &trace.Recorder{Max: 1, Logf: func(string, ...any) {}}
	rec.Add(trace.Event{At: 0, Kind: trace.Dispatch, PCPU: 0, VM: "vm", VCPU: 0})
	rec.Add(trace.Event{At: simtime.Time(ms(5)), Kind: trace.JobDone, PCPU: 0, VM: "vm", VCPU: 0})
	var buf bytes.Buffer
	if err := trace.Summarize(rec).Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dropped: 1 events past the recorder cap") {
		t.Fatalf("summary missing dropped-count line:\n%s", buf.String())
	}
}
