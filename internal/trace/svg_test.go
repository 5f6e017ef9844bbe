package trace_test

import (
	"bytes"
	"strings"
	"testing"

	"rtvirt/internal/simtime"
	"rtvirt/internal/trace"
)

func TestWriteSVG(t *testing.T) {
	var r trace.Recorder
	r.Consume(trace.Event{At: 0, Kind: trace.Dispatch, PCPU: 0, VM: "vmA"})
	r.Consume(trace.Event{At: simtime.Time(ms(5)), Kind: trace.Dispatch, PCPU: 0, VM: "vmB"})
	r.Consume(trace.Event{At: simtime.Time(ms(6)), Kind: trace.JobMiss, PCPU: 0, Task: "late", Arg: int64(simtime.Micros(50))})
	r.Consume(trace.Event{At: simtime.Time(ms(8)), Kind: trace.Dispatch, PCPU: 1, VM: "vmA"})
	var buf bytes.Buffer
	if err := r.WriteSVG(&buf, 2, 0, simtime.Time(ms(10))); err != nil {
		t.Fatal(err)
	}
	svg := buf.String()
	for _, want := range []string{"<svg", "pcpu0", "pcpu1", "vmA", "vmB", "miss: late", "</svg>"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("svg missing %q", want)
		}
	}
	// Invalid windows are rejected.
	if err := r.WriteSVG(&buf, 2, 10, 10); err == nil {
		t.Fatal("degenerate window accepted")
	}
	if err := r.WriteSVG(&buf, 0, 0, 10); err == nil {
		t.Fatal("zero pcpus accepted")
	}
}

// Golden test: a hand-built two-VM trace renders byte-identical SVG. This
// pins the renderer's output so refactors of the event pipeline cannot
// silently change the visualisation. Refresh with `go test -run
// TestWriteSVGGoldenTwoVM -update ./internal/trace/`.
func TestWriteSVGGoldenTwoVM(t *testing.T) {
	var r trace.Recorder
	r.Consume(trace.Event{At: 0, Kind: trace.Dispatch, PCPU: 0, VM: "vmA", VCPU: 0})
	r.Consume(trace.Event{At: 0, Kind: trace.Dispatch, PCPU: 1, VM: "vmB", VCPU: 0})
	r.Consume(trace.Event{At: simtime.Time(ms(2)), Kind: trace.JobDone, PCPU: 0, VM: "vmA", VCPU: 0, Task: "a", Arg: int64(ms(2))})
	r.Consume(trace.Event{At: simtime.Time(ms(2)), Kind: trace.Dispatch, PCPU: 0}) // idle
	r.Consume(trace.Event{At: simtime.Time(ms(4)), Kind: trace.Dispatch, PCPU: 0, VM: "vmB", VCPU: 1})
	r.Consume(trace.Event{At: simtime.Time(ms(6)), Kind: trace.JobMiss, PCPU: 1, VM: "vmB", VCPU: 0, Task: "b", Arg: int64(simtime.Micros(500))})
	r.Consume(trace.Event{At: simtime.Time(ms(8)), Kind: trace.Dispatch, PCPU: 1, VM: "vmA", VCPU: 0})
	var buf bytes.Buffer
	if err := r.WriteSVG(&buf, 2, 0, simtime.Time(ms(10))); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "gantt_two_vm.svg", buf.Bytes())
}

// End-to-end: an actual run's trace renders valid SVG with boxes.
func TestWriteSVGEndToEnd(t *testing.T) {
	rec := runTracedScenario(t)
	var buf bytes.Buffer
	if err := rec.WriteSVG(&buf, 1, 0, simtime.Time(simtime.Millis(100))); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "<rect") < 10 {
		t.Fatalf("svg has too few boxes:\n%.300s", buf.String())
	}
}
