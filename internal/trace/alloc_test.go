package trace

import (
	"testing"

	"rtvirt/internal/simtime"
)

// The disabled path is the default for every experiment sweep, so it must
// be free: emitting on a Bus with no sinks performs zero allocations.
// CI runs this test explicitly as the zero-alloc guard.
func TestTracerDisabledZeroAlloc(t *testing.T) {
	var bus Bus
	if bus.Active() {
		t.Fatal("zero-value Bus reports active")
	}
	ev := Event{At: simtime.Time(simtime.Millis(1)), Kind: Dispatch, PCPU: 0, VM: "vm0", Arg: 42}
	if n := testing.AllocsPerRun(1000, func() { bus.Emit(ev) }); n != 0 {
		t.Fatalf("disabled Emit allocates %.1f allocs/op, want 0", n)
	}

	// The enabled path with a counting sink stays allocation-free too, so
	// sweeps can afford per-arm event counts.
	var c Counts
	bus.Attach(&c)
	if n := testing.AllocsPerRun(1000, func() { bus.Emit(ev) }); n != 0 {
		t.Fatalf("counting Emit allocates %.1f allocs/op, want 0", n)
	}
	if c.Total() == 0 {
		t.Fatal("counting sink saw no events")
	}
	bus.Reset()
	if bus.Active() {
		t.Fatal("Reset did not disable the bus")
	}
}

// Summary digests whole runs on the host bus, so once it has seen a VCPU
// the dispatch/job-done stream over it allocates nothing. CI runs this
// test with the zero-alloc guard.
func TestSummaryConsumeZeroAlloc(t *testing.T) {
	var s Summary
	evs := []Event{
		{Kind: Dispatch, PCPU: 0, VM: "vm0", VCPU: 0},
		{Kind: Dispatch, PCPU: 1, VM: "vm1", VCPU: 1},
		{Kind: JobDone, PCPU: 0, VM: "vm0", VCPU: 0, Arg: 7},
		{Kind: Dispatch, PCPU: 0, VM: "vm1", VCPU: 1},
		{Kind: JobMiss, PCPU: 0, VM: "vm1", VCPU: 1, Arg: 3},
		{Kind: Dispatch, PCPU: 1}, // idle
		{Kind: Dispatch, PCPU: 1, VM: "vm0", VCPU: 0},
	}
	var at simtime.Time
	stream := func() {
		for _, ev := range evs {
			at += simtime.Time(simtime.Microsecond)
			ev.At = at
			s.Consume(ev)
		}
	}
	stream() // first sight of each VCPU and PCPU allocates its digest
	if n := testing.AllocsPerRun(1000, stream); n != 0 {
		t.Fatalf("Summary.Consume allocates %.1f allocs per stream over seen VCPUs, want 0", n)
	}
	if s.Migrations == 0 || s.VCPUs[VCPUKey{VM: "vm1", VCPU: 1}].Misses == 0 {
		t.Fatalf("stream not digested: %+v", s)
	}
}
