// Package check provides always-on invariant oracles for the simulation
// stack: trace.Bus sinks that watch the cross-layer telemetry stream and
// assert, online, the scheduling properties the paper's claims rest on —
// bandwidth conservation (no VCPU granted more than its reservation per
// slice/period), budget non-negativity (no server or quota overdrawn),
// EDF dispatch-order soundness, admission soundness (§3.2's utilization
// rule at both layers, and no missed deadline for a confirmed-admitted
// task set), hypercall/migration accounting parity, and fork bit-identity.
//
// Oracles are pure observers: they read live scheduler state through
// read-only accessors but never mutate it, so arming them cannot perturb
// a run — golden outputs stay bit-identical with the suite attached.
// internal/check/quick drives randomly generated scenarios through the
// suite under all four stacks and shrinks any violation to a minimal
// reproducer.
package check

import (
	"fmt"
	"sort"

	"rtvirt/internal/core"
	"rtvirt/internal/sched/rtxen"
	"rtvirt/internal/simtime"
	"rtvirt/internal/trace"
)

// Violation is one observed invariant breach.
type Violation struct {
	At     simtime.Time `json:"at"`
	Oracle string       `json:"oracle"`
	Detail string       `json:"detail"`
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("[%v] %s: %s", v.At, v.Oracle, v.Detail)
}

// Oracle is an invariant checker fed from the telemetry bus. Finish runs
// end-of-run checks (counter parity, final-state audits) after the
// simulation has stopped.
type Oracle interface {
	trace.Sink
	Name() string
	Finish(now simtime.Time)
	Violations() []Violation
}

// maxViolations caps the violations each oracle retains; a systematically
// broken scheduler would otherwise flood memory with millions of copies
// of the same breach.
const maxViolations = 64

// recorder is the violation buffer every oracle embeds.
type recorder struct {
	name    string
	vs      []Violation
	dropped int
}

func (r *recorder) flag(at simtime.Time, format string, args ...any) {
	if len(r.vs) >= maxViolations {
		r.dropped++
		return
	}
	r.vs = append(r.vs, Violation{At: at, Oracle: r.name, Detail: fmt.Sprintf(format, args...)})
}

// Name implements Oracle.
func (r *recorder) Name() string { return r.name }

// Violations implements Oracle.
func (r *recorder) Violations() []Violation { return r.vs }

// Dropped reports violations discarded beyond the retention cap.
func (r *recorder) Dropped() int { return r.dropped }

// Opts tunes which optional oracles a Suite arms.
type Opts struct {
	// NeverMiss lists "vm/task" keys of periodic tasks that must meet
	// every deadline once the guest has confirmed their admission
	// (trace.Admit with the task's name). Only armed under the RTVirt
	// stack: the baseline stacks give vcpus-style VMs no host
	// reservation, so their misses are expected, and sporadic arrivals
	// may legally burst past the declared rate.
	NeverMiss []string
}

// Suite is a set of oracles attached to one system's telemetry bus.
type Suite struct {
	sys     *core.System
	oracles []Oracle
}

// Attach builds the oracle suite applicable to sys's scheduler stack and
// attaches every oracle to the host bus. Call it after core.NewSystem and
// before guests are built, so admission-time events are observed too
// (scenario.Options.OnSystem hooks exactly there).
func Attach(sys *core.System, opts Opts) *Suite {
	oracles := []Oracle{
		NewBudgetOracle(),
		NewBandwidthOracle(sys.Host),
		NewAdmissionOracle(sys),
		NewParityOracle(sys.Host),
	}
	if rs, ok := sys.Host.Scheduler().(*rtxen.Scheduler); ok {
		oracles = append(oracles, NewEDFOracle(sys.Host, rs))
	}
	if len(opts.NeverMiss) > 0 && sys.Cfg.Stack == core.RTVirt {
		oracles = append(oracles, NewMissOracle(opts.NeverMiss))
	}
	for _, o := range oracles {
		sys.Host.TraceTo(o)
	}
	return &Suite{sys: sys, oracles: oracles}
}

// Finish runs every oracle's end-of-run checks and returns all violations
// ordered by time (stable on oracle order for ties).
func (s *Suite) Finish() []Violation {
	now := s.sys.Sim.Now()
	var all []Violation
	for _, o := range s.oracles {
		o.Finish(now)
		all = append(all, o.Violations()...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].At < all[j].At })
	return all
}
