package check

import (
	"strings"
	"testing"

	"rtvirt/internal/core"
	"rtvirt/internal/guest"
	"rtvirt/internal/hv"
	"rtvirt/internal/sched/rtxen"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
	"rtvirt/internal/trace"
)

var bgTaskID int

// newBackgroundTask registers an always-hungry background task on g.
func newBackgroundTask(t *testing.T, g *guest.OS) *task.Task {
	t.Helper()
	bgTaskID++
	tk := task.NewBackground(bgTaskID, "bg")
	if err := g.Register(tk); err != nil {
		t.Fatal(err)
	}
	return tk
}

// Every oracle must actually fire: each test below feeds it a hand-built
// trace stream or a deliberately-broken scheduler view that violates its
// invariant, and asserts the violation is reported.

func TestBudgetOracleFlagsOverdraw(t *testing.T) {
	o := NewBudgetOracle()
	// A clean depletion (Arg 0) must stay silent.
	o.Consume(trace.Event{At: 5, Kind: trace.Deplete, VM: "vm", VCPU: 0})
	if len(o.Violations()) != 0 {
		t.Fatalf("clean Deplete flagged: %v", o.Violations())
	}
	o.Consume(trace.Event{At: 7, Kind: trace.Deplete, VM: "vm", VCPU: 1, PCPU: 2, Arg: 250})
	vs := o.Violations()
	if len(vs) != 1 {
		t.Fatalf("overdraw not flagged: %v", vs)
	}
	if vs[0].At != 7 || !strings.Contains(vs[0].Detail, "overdrew") {
		t.Fatalf("unexpected violation: %+v", vs[0])
	}
}

func TestBudgetOracleCapsRetention(t *testing.T) {
	o := NewBudgetOracle()
	for i := 0; i < maxViolations+10; i++ {
		o.Consume(trace.Event{At: simtime.Time(i), Kind: trace.Deplete, Arg: 1})
	}
	if len(o.Violations()) != maxViolations {
		t.Fatalf("retention cap broken: %d violations", len(o.Violations()))
	}
	if o.Dropped() != 10 {
		t.Fatalf("dropped count = %d, want 10", o.Dropped())
	}
}

func TestMissOracleFlagsConfirmedAdmittedMiss(t *testing.T) {
	o := NewMissOracle([]string{"vm/rt"})
	// A miss before the admission verdict is not covered by the guarantee.
	o.Consume(trace.Event{At: 1, Kind: trace.JobMiss, VM: "vm", Task: "rt", Arg: 100})
	if len(o.Violations()) != 0 {
		t.Fatalf("unconfirmed miss flagged: %v", o.Violations())
	}
	o.Consume(trace.Event{At: 2, Kind: trace.Admit, VM: "vm", Task: "rt"})
	// An unwatched task's miss stays silent even when admitted.
	o.Consume(trace.Event{At: 3, Kind: trace.Admit, VM: "vm", Task: "other"})
	o.Consume(trace.Event{At: 4, Kind: trace.JobMiss, VM: "vm", Task: "other"})
	if len(o.Violations()) != 0 {
		t.Fatalf("unwatched miss flagged: %v", o.Violations())
	}
	o.Consume(trace.Event{At: 5, Kind: trace.JobMiss, VM: "vm", Task: "rt", Arg: 777})
	vs := o.Violations()
	if len(vs) != 1 || !strings.Contains(vs[0].Detail, "despite confirmed admission") {
		t.Fatalf("confirmed miss not flagged: %v", vs)
	}
	// A Reject disarms the guarantee.
	o.Consume(trace.Event{At: 6, Kind: trace.Reject, VM: "vm", Task: "rt"})
	o.Consume(trace.Event{At: 7, Kind: trace.JobMiss, VM: "vm", Task: "rt"})
	if len(o.Violations()) != 1 {
		t.Fatalf("disarmed miss flagged: %v", o.Violations())
	}
}

func TestParityOracleFlagsDrift(t *testing.T) {
	sys := core.NewSystem(func() core.Config {
		cfg := core.DefaultConfig(core.RTVirt)
		cfg.PCPUs = 1
		return cfg
	}())
	o := NewParityOracle(sys.Host)
	sys.Host.TraceTo(o)
	// A Migrate event with no matching Overhead.Migrations charge breaks
	// parity; so does a hypercall event without a counter bump.
	sys.Host.Emit(trace.Event{At: 1, Kind: trace.Migrate, VM: "vm"})
	sys.Host.Emit(trace.Event{At: 2, Kind: trace.HypercallIncBW, VM: "vm"})
	o.Finish(3)
	vs := o.Violations()
	if len(vs) != 2 {
		t.Fatalf("parity drift not flagged twice: %v", vs)
	}
}

func TestBandwidthOracleGapMode(t *testing.T) {
	cfg := core.DefaultConfig(core.RTXen)
	cfg.PCPUs = 1
	sys := core.NewSystem(cfg)
	res := hv.Reservation{Budget: simtime.Millis(2), Period: simtime.Millis(10)}
	if _, err := sys.NewServerGuest("vm", []hv.Reservation{res}, 256); err != nil {
		t.Fatal(err)
	}
	o := NewBandwidthOracle(sys.Host)
	sys.Host.TraceTo(o)

	// First grant establishes the baseline; an exact refill is legal.
	o.Consume(trace.Event{At: simtime.Time(simtime.Millis(10)), Kind: trace.Replenish,
		VM: "vm", VCPU: 0, Arg: int64(res.Budget)})
	o.Consume(trace.Event{At: simtime.Time(simtime.Millis(20)), Kind: trace.Replenish,
		VM: "vm", VCPU: 0, Arg: int64(res.Budget)})
	if len(o.Violations()) != 0 {
		t.Fatalf("legal refills flagged: %v", o.Violations())
	}
	// A grant above bandwidth × gap is a conservation breach.
	o.Consume(trace.Event{At: simtime.Time(simtime.Millis(30)), Kind: trace.Replenish,
		VM: "vm", VCPU: 0, Arg: int64(res.Budget) + 5000})
	if len(o.Violations()) != 1 {
		t.Fatalf("over-grant not flagged: %v", o.Violations())
	}
	// Same-instant double replenish is also a breach.
	o.Consume(trace.Event{At: simtime.Time(simtime.Millis(30)), Kind: trace.Replenish,
		VM: "vm", VCPU: 0, Arg: 1})
	if len(o.Violations()) != 2 {
		t.Fatalf("double replenish not flagged: %v", o.Violations())
	}
	// Grants to VCPUs the host does not know are flagged, not dropped.
	o.Consume(trace.Event{At: 1, Kind: trace.Replenish, VM: "ghost", VCPU: 3, Arg: 1})
	if len(o.Violations()) != 3 {
		t.Fatalf("unknown-VCPU grant not flagged: %v", o.Violations())
	}
}

func TestBandwidthOracleSliceMode(t *testing.T) {
	cfg := core.DefaultConfig(core.RTVirt)
	cfg.PCPUs = 1
	sys := core.NewSystem(cfg)
	res := hv.Reservation{Budget: simtime.Millis(2), Period: simtime.Millis(10)}
	if _, err := sys.NewServerGuest("vm", []hv.Reservation{res}, 256); err != nil {
		t.Fatal(err)
	}
	o := NewBandwidthOracle(sys.Host)
	sys.Host.TraceTo(o)
	// Before Start the current slice is [0, 0): a grant claiming to cover
	// it must be ≤ 1ns of rounding, and one at any other instant is
	// outside its slice start.
	o.Consume(trace.Event{At: 0, Kind: trace.Replenish, VM: "vm", VCPU: 0, Arg: 500})
	vs := o.Violations()
	if len(vs) != 1 || !strings.Contains(vs[0].Detail, "limit") {
		t.Fatalf("over-slice grant not flagged: %v", vs)
	}
	o.Consume(trace.Event{At: 5, Kind: trace.Replenish, VM: "vm", VCPU: 0, Arg: 1})
	vs = o.Violations()
	if len(vs) != 2 || !strings.Contains(vs[1].Detail, "outside its slice") {
		t.Fatalf("off-slice grant not flagged: %v", vs)
	}
}

// fakeAdmitter is a host-admission view that over-commits.
type fakeAdmitter struct{ bw, cap float64 }

func (f fakeAdmitter) AdmittedBandwidth() float64 { return f.bw }
func (f fakeAdmitter) Capacity() float64          { return f.cap }

func TestAdmissionOracleFlagsHostOvercommit(t *testing.T) {
	cfg := core.DefaultConfig(core.RTVirt)
	cfg.PCPUs = 2
	sys := core.NewSystem(cfg)
	o := NewAdmissionOracle(sys)
	// Substitute a lying admission view: 2.5 CPUs admitted on 2.
	o.host = fakeAdmitter{bw: 2.5, cap: 2}
	o.Consume(trace.Event{At: 9, Kind: trace.Admit, VM: "vm"})
	vs := o.Violations()
	if len(vs) != 1 || !strings.Contains(vs[0].Detail, "over capacity") {
		t.Fatalf("host overcommit not flagged: %v", vs)
	}
	o.Finish(10)
	if len(o.Violations()) != 2 {
		t.Fatalf("Finish audit missing: %v", o.Violations())
	}
}

// invertedServerState wraps the real rtxen accounting but reverses the
// deadline order, making the scheduler's correct EDF picks look like
// systematic inversions — the broken-scheduler double for the EDF oracle.
type invertedServerState struct{ inner *rtxen.Scheduler }

func (r invertedServerState) ServerState(v *hv.VCPU, now simtime.Time) (simtime.Duration, simtime.Time, bool) {
	b, dl, ok := r.inner.ServerState(v, now)
	return b, simtime.Time(1<<50) - dl, ok
}

// buildTwoServerRTXen builds a 1-PCPU RT-Xen system with two
// always-runnable servers (background demand), so exactly one runs and
// one waits at all times while both hold budget.
func buildTwoServerRTXen(t *testing.T) *core.System {
	t.Helper()
	cfg := core.DefaultConfig(core.RTXen)
	cfg.PCPUs = 1
	sys := core.NewSystem(cfg)
	// Distinct periods keep the two servers' deadlines distinct, so the
	// EDF order between them is always strict.
	servers := map[string]hv.Reservation{
		"vm-a": {Budget: simtime.Millis(4), Period: simtime.Millis(10)},
		"vm-b": {Budget: simtime.Millis(8), Period: simtime.Millis(20)},
	}
	for _, name := range []string{"vm-a", "vm-b"} {
		g, err := sys.NewServerGuest(name, []hv.Reservation{servers[name]}, 256)
		if err != nil {
			t.Fatal(err)
		}
		tk := newBackgroundTask(t, g)
		g.ReleaseAt(tk, 0, simtime.Duration(1<<60))
	}
	return sys
}

func TestEDFOracleSilentOnCorrectScheduler(t *testing.T) {
	sys := buildTwoServerRTXen(t)
	rs := sys.Host.Scheduler().(*rtxen.Scheduler)
	o := NewEDFOracle(sys.Host, rs)
	sys.Host.TraceTo(o)
	sys.Start()
	sys.Run(simtime.Millis(200))
	o.Finish(sys.Sim.Now())
	if vs := o.Violations(); len(vs) != 0 {
		t.Fatalf("correct rtxen flagged: %v", vs)
	}
}

func TestEDFOracleFlagsInvertedScheduler(t *testing.T) {
	sys := buildTwoServerRTXen(t)
	rs := sys.Host.Scheduler().(*rtxen.Scheduler)
	o := NewEDFOracle(sys.Host, invertedServerState{rs})
	sys.Host.TraceTo(o)
	sys.Start()
	sys.Run(simtime.Millis(200))
	o.Finish(sys.Sim.Now())
	vs := o.Violations()
	if len(vs) == 0 {
		t.Fatal("inverted-EDF view not flagged")
	}
	if !strings.Contains(vs[0].Detail, "EDF inversion") {
		t.Fatalf("unexpected violation: %+v", vs[0])
	}
}

func TestDispatchDigestSeparatesStreams(t *testing.T) {
	a, b := NewDispatchDigest(), NewDispatchDigest()
	ev := trace.Event{At: 10, Kind: trace.Dispatch, PCPU: 0, VM: "vm", VCPU: 0}
	a.Consume(ev)
	b.Consume(ev)
	if !a.Equal(b) {
		t.Fatal("identical streams digest differently")
	}
	// Non-dispatch events are ignored.
	b.Consume(trace.Event{At: 11, Kind: trace.Replenish, VM: "vm"})
	if !a.Equal(b) {
		t.Fatal("non-dispatch event changed the digest")
	}
	b.Consume(trace.Event{At: 12, Kind: trace.Dispatch, PCPU: 1, VM: "vm", VCPU: 0})
	if a.Equal(b) {
		t.Fatal("divergent streams digest equal")
	}
}
