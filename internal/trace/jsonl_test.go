package trace_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rtvirt/internal/scenario"
	"rtvirt/internal/simtime"
	"rtvirt/internal/trace"
)

func sampleEvents() []trace.Event {
	return []trace.Event{
		{At: 0, Kind: trace.Admit, PCPU: -1, VM: "vm0", VCPU: 0, Arg: int64(ms(4))},
		{At: simtime.Time(ms(1)), Kind: trace.Dispatch, PCPU: 0, VM: "vm0", VCPU: 0, Arg: int64(ms(4))},
		{At: simtime.Time(ms(2)), Kind: trace.HypercallIncBW, PCPU: 0, VM: "vm0", VCPU: 0, Arg: int64(ms(2))},
		{At: simtime.Time(ms(3)), Kind: trace.GuestSwitch, PCPU: 0, VM: "vm0", VCPU: 0, Task: "b"},
		{At: simtime.Time(ms(4)), Kind: trace.Preempt, PCPU: 0, VM: "vm0", VCPU: 0, Task: "b", Arg: int64(ms(1))},
		{At: simtime.Time(ms(5)), Kind: trace.Migrate, PCPU: 1, VM: "vm0", VCPU: 0, Arg: 0},
		{At: simtime.Time(ms(6)), Kind: trace.JobDone, PCPU: 1, VM: "vm0", VCPU: 0, Task: "b", Arg: int64(ms(6))},
		{At: simtime.Time(ms(7)), Kind: trace.JobMiss, PCPU: 1, VM: "vm0", VCPU: 0, Task: "b", Arg: int64(simtime.Micros(250))},
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := trace.NewJSONL(&buf)
	events := sampleEvents()
	for _, ev := range events {
		sink.Consume(ev)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	var rec trace.Recorder
	var counts trace.Counts
	n, err := trace.ReadJSONL(&buf, &rec, &counts)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(events) {
		t.Fatalf("replayed %d events, want %d", n, len(events))
	}
	if !reflect.DeepEqual(rec.Records(), events) {
		t.Fatalf("jsonl round-trip mismatch:\n got %+v\nwant %+v", rec.Records(), events)
	}
	if counts.Total() != uint64(len(events)) || counts.Hypercalls() != 1 {
		t.Fatalf("replayed counts wrong: %v", counts)
	}
}

func TestJSONLBadInput(t *testing.T) {
	n, err := trace.ReadJSONL(strings.NewReader("{\"kind\":\"dispatch\"}\nnot json\n"))
	if err == nil {
		t.Fatal("malformed stream accepted")
	}
	if n != 1 {
		t.Fatalf("events before error = %d, want 1", n)
	}
	if _, err := trace.ReadJSONL(strings.NewReader("{\"kind\":\"no-such-kind\"}\n")); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// A stream whose time goes backwards is rejected at the first event that
// is earlier than its predecessor, by index, before any sink sees it; the
// replay would otherwise report a negative span and negative run times.
func TestJSONLTimeBackwards(t *testing.T) {
	in := `{"at_ns":5,"kind":"dispatch","pcpu":0,"vm":"a","vcpu":0,"arg":1000}
{"at_ns":5,"kind":"dispatch","pcpu":0,"arg":0}
{"at_ns":1,"kind":"dispatch","pcpu":0,"vm":"a","vcpu":0,"arg":1000}
`
	var counts trace.Counts
	n, err := trace.ReadJSONL(strings.NewReader(in), &counts)
	want := "trace: event 3 at 1ns precedes event 2 at 5ns"
	if err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
	if n != 2 || counts.Total() != 2 {
		t.Fatalf("replayed %d events (%d counted) before the error, want 2", n, counts.Total())
	}
}

// A pcpu at or above MaxPCPUs is rejected by event index before any sink
// sees it; the summary would otherwise grow a row for every PCPU up to it.
// The highest legal PCPU replays.
func TestJSONLPCPULimit(t *testing.T) {
	line := func(pcpu int) string {
		return fmt.Sprintf(`{"at_ns":5,"kind":"dispatch","pcpu":%d,"vm":"a","vcpu":0}`+"\n", pcpu)
	}
	var sum trace.Summary
	if n, err := trace.ReadJSONL(strings.NewReader(line(trace.MaxPCPUs-1)), &sum); err != nil || n != 1 {
		t.Fatalf("pcpu %d: replayed %d events, error %v; want 1 and none", trace.MaxPCPUs-1, n, err)
	}
	if got := len(sum.PCPUs); got != trace.MaxPCPUs {
		t.Errorf("summary holds %d PCPUs, want %d", got, trace.MaxPCPUs)
	}
	var counts trace.Counts
	n, err := trace.ReadJSONL(strings.NewReader(line(0)+line(trace.MaxPCPUs)), &counts)
	want := fmt.Sprintf("trace: event 2 names pcpu %d, at or above the %d-PCPU limit", trace.MaxPCPUs, trace.MaxPCPUs)
	if err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
	if n != 1 || counts.Total() != 1 {
		t.Fatalf("replayed %d events (%d counted) before the error, want 1", n, counts.Total())
	}
}

// An event before time zero, or one with a negative duration in its Arg,
// is rejected by index: no simulation emits one, and the replay would
// print a wrapped window or a negative p99. Migrate's Arg is a PCPU id,
// not a duration, and is not checked.
func TestJSONLRejectsNegatives(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{`{"at_ns":-1,"kind":"dispatch","pcpu":0}`, "trace: event 1 at -1ns precedes time zero"},
		{`{"at_ns":5,"kind":"job-done","pcpu":0,"vm":"a","arg":-7000}`, "trace: event 1 (job-done) carries a negative duration -7000 in arg"},
	} {
		if _, err := trace.ReadJSONL(strings.NewReader(tc.in)); err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", tc.in, err, tc.want)
		}
	}
	in := `{"at_ns":0,"kind":"job-done","pcpu":0,"vm":"a","arg":0}
{"at_ns":5,"kind":"migrate","pcpu":1,"vm":"a","arg":-1}`
	if n, err := trace.ReadJSONL(strings.NewReader(in)); err != nil || n != 2 {
		t.Errorf("replayed %d events, error %v; want 2 and none", n, err)
	}
}

// Golden test: the JSONL wire format is an interchange format between
// rtvirt-sim and rtvirt-analyze, so its exact bytes are pinned. Refresh
// with `go test -run TestJSONLGolden -update ./internal/trace/`.
func TestJSONLGolden(t *testing.T) {
	var buf bytes.Buffer
	sink := trace.NewJSONL(&buf)
	for _, ev := range sampleEvents() {
		sink.Consume(ev)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "events.jsonl", buf.Bytes())
}

// Acceptance round-trip: a live scenario streamed through the JSONL sink
// re-ingests with event counts identical to the simulator's own counters,
// and the hypercall/migration kinds agree with the kernel's overhead
// meters (the counter-parity invariant behind Table 6's columns).
func TestJSONLScenarioRoundTrip(t *testing.T) {
	sc := scenario.Scenario{
		Stack:   "rtvirt",
		PCPUs:   2,
		Seconds: 2,
		VMs: []scenario.VM{
			{Name: "vmA", VCPUs: 2, Tasks: []scenario.TaskSpec{
				{Name: "p1", SliceUS: 2000, PeriodUS: 10000},
				{Name: "s1", Kind: "sporadic", SliceUS: 500, PeriodUS: 5000, RateHz: 50},
			}},
			{Name: "vmB", VCPUs: 1, Tasks: []scenario.TaskSpec{
				{Name: "p2", SliceUS: 4000, PeriodUS: 20000},
			}},
		},
	}
	var buf bytes.Buffer
	sink := trace.NewJSONL(&buf)
	res, err := scenario.Run(sc, scenario.Options{Sinks: []trace.Sink{sink}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if res.Events.Total() == 0 {
		t.Fatal("no events counted")
	}

	var replayed trace.Counts
	n, err := trace.ReadJSONL(&buf, &replayed)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(n) != res.Events.Total() {
		t.Fatalf("replayed %d events, simulator counted %d", n, res.Events.Total())
	}
	if replayed != res.Events {
		t.Fatalf("replayed counts != simulator counts:\n got %v\nwant %v", replayed, res.Events)
	}
	if replayed.Hypercalls() != res.Overhead.Hypercalls {
		t.Fatalf("trace hypercalls %d != kernel meter %d", replayed.Hypercalls(), res.Overhead.Hypercalls)
	}
	if replayed[trace.Migrate] != res.Overhead.Migrations {
		t.Fatalf("trace migrations %d != kernel meter %d", replayed[trace.Migrate], res.Overhead.Migrations)
	}
}
