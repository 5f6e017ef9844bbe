package trace_test

import (
	"bytes"
	"encoding/csv"
	"reflect"
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

func TestRecorderCap(t *testing.T) {
	var logged int
	r := trace.Recorder{Max: 2, Logf: func(format string, args ...any) { logged++ }}
	for i := 0; i < 5; i++ {
		r.Add(trace.Event{At: simtime.Time(i), Kind: trace.Dispatch})
	}
	if r.Len() != 2 || r.Dropped() != 3 {
		t.Fatalf("len=%d dropped=%d", r.Len(), r.Dropped())
	}
	// The truncation notice fires exactly once, not per dropped event.
	if logged != 1 {
		t.Fatalf("truncation notice logged %d times, want 1", logged)
	}
}

func TestWriteCSV(t *testing.T) {
	var r trace.Recorder
	r.Add(trace.Event{At: simtime.Time(ms(1)), Kind: trace.Dispatch, PCPU: 0, VM: "vm0", VCPU: 0})
	r.Add(trace.Event{At: simtime.Time(ms(2)), Kind: trace.JobMiss, PCPU: 1, VM: "vm1", Task: "t", Arg: int64(simtime.Micros(5))})
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("csv rows = %d, want header + 2", len(rows))
	}
	if rows[2][1] != "job-miss" || rows[2][6] != "5000" {
		t.Fatalf("csv content wrong: %v", rows[2])
	}
}

// TestCSVRoundTrip parses WriteCSV output with encoding/csv: the header,
// one row per event, and every field in the documented units.
func TestCSVRoundTrip(t *testing.T) {
	var r trace.Recorder
	r.Add(trace.Event{At: simtime.Time(ms(1)), Kind: trace.Dispatch, PCPU: 0, VM: "vm0", VCPU: 1, Arg: int64(ms(2))})
	r.Add(trace.Event{At: simtime.Time(ms(3)), Kind: trace.HypercallIncBW, PCPU: -1, VM: "vm1", Arg: int64(ms(4))})
	r.Add(trace.Event{At: simtime.Time(ms(5)) + 1500, Kind: trace.JobMiss, PCPU: 1, VM: "vm0", Task: "t", Arg: int64(simtime.Micros(7))})
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"at_us", "kind", "pcpu", "vm", "vcpu", "task", "arg"},
		{"1000.000", "dispatch", "0", "vm0", "1", "", "2000000"},
		{"3000.000", "hc-inc-bw", "-1", "vm1", "0", "", "4000000"},
		{"5001.500", "job-miss", "1", "vm0", "0", "t", "7000"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("csv rows:\n got %q\nwant %q", got, want)
	}
}

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

	var dispatches, done, miss int
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
	if c := rec.Counts(); c[trace.Admit] == 0 {
		t.Fatalf("no admission events recorded: %v", c)
	}
}

func TestTimeline(t *testing.T) {
	var r trace.Recorder
	r.Add(trace.Event{At: 0, Kind: trace.Dispatch, PCPU: 0, VM: "vmA"})
	r.Add(trace.Event{At: simtime.Time(ms(5)), Kind: trace.Dispatch, PCPU: 0, VM: "vmB"})
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
