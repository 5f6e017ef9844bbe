// Package cluster implements the multi-host extension sketched in §6 of
// the RTVirt paper: "considering the availability of multiple hosts,
// RTVirt's VM admission and scheduling process can be extended to optimize
// the placement of VMs across different hosts ... Live VM migration can be
// considered to dynamically adjust VM placement at runtime, but its
// overhead must be properly accounted for."
//
// The engine is Sharded (sharded.go): every host runs on its own simulator,
// and the simulators advance in conservative lookahead windows on one
// thread. VMs are placed by
// a pluggable bandwidth-aware policy, live-migrated between hosts with a
// stop-and-copy downtime model (constant handoff plus a
// per-reserved-bandwidth term, after the authors' own migration-cost
// modelling [Wu & Zhao, CLOUD'11]), and restarted on a survivor when their
// host crashes (control.go). Deadline misses caused by the blackout are
// charged to the moved VM's tasks — the §6 caveat made measurable.
package cluster

import (
	"errors"
	"fmt"

	"rtvirt/internal/guest"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// Policy selects the placement heuristic.
type Policy int

// Placement policies.
const (
	// FirstFit places on the first host with room.
	FirstFit Policy = iota
	// BestFit places on the feasible host with the least remaining RT
	// bandwidth (consolidation).
	BestFit
	// WorstFit places on the feasible host with the most remaining RT
	// bandwidth (load spreading).
	WorstFit
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case FirstFit:
		return "first-fit"
	case BestFit:
		return "best-fit"
	case WorstFit:
		return "worst-fit"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// TaskSpec describes one application of a VM deployment.
type TaskSpec struct {
	Name   string
	Kind   task.Kind
	Params task.Params
	// Phase delays the first periodic release after deployment.
	Phase simtime.Duration
	// Adaptive, when set, attaches a feedback controller that retunes the
	// task's slice from observed response times. Controllers are
	// host-local: they observe the resident host's trace bus and actuate
	// through the resident guest.
	Adaptive *guest.AdaptiveConfig
}

// VMSpec describes a deployable VM.
type VMSpec struct {
	Name  string
	VCPUs int
	Tasks []TaskSpec
}

// Bandwidth estimates the spec's RT bandwidth requirement in CPUs: the sum
// of slice/period over its real-time tasks. Admission charges more (each
// VCPU's budget is rounded up and padded with slack), so placement checks
// the charged reservation, not this estimate; the migration blackout model
// scales with it.
func (s VMSpec) Bandwidth() float64 {
	var sum float64
	for _, t := range s.Tasks {
		if t.Kind != task.Background {
			sum += t.Params.Bandwidth()
		}
	}
	return sum
}

// Errors.
var (
	// ErrNoHostFits is returned when no host can admit a VM.
	ErrNoHostFits = errors.New("cluster: no host with sufficient bandwidth")
	// ErrUnknownVM is returned for operations on unplaced VMs.
	ErrUnknownVM = errors.New("cluster: unknown VM")
	// ErrMigrating rejects moving a dark VM: one mid-migration,
	// recovering from a host failure, or Pending.
	ErrMigrating = errors.New("cluster: VM is migrating")
)
