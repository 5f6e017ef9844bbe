package trace

import (
	"encoding/json"
	"fmt"

	"rtvirt/internal/simtime"
)

// Kind classifies a telemetry event. The enum covers every scheduling
// decision the RTVirt paper reasons about: dispatches and preemptions,
// job completions and misses, the three sched_rtvirt() hypercall flavours
// (§3.2), VCPU migrations, server budget replenish/deplete transitions,
// guest-level context switches, and admission verdicts.
type Kind uint8

// Event kinds. The Arg field of an Event carries a kind-specific payload,
// noted per kind.
const (
	// Dispatch: a PCPU switched to a VCPU (VM empty = idle). Arg is the
	// granted run length in ns (0 when unknown, e.g. undispatch).
	Dispatch Kind = iota
	// Preempt: a VCPU was displaced mid-job by a scheduling decision.
	// Arg is the preempted job's remaining work in ns.
	Preempt
	// JobDone: a job completed by its deadline. Arg is the response time
	// in ns.
	JobDone
	// JobMiss: a job completed after its deadline. Arg is the lateness
	// in ns.
	JobMiss
	// HypercallIncBW..HypercallIncDecBW: one sched_rtvirt() invocation
	// per flag (§3.2). Arg is the requested budget in ns per period.
	HypercallIncBW
	HypercallDecBW
	HypercallIncDecBW
	// Migrate: a VCPU was dispatched on a different PCPU than its last
	// one. PCPU is the destination; Arg is the source PCPU id.
	Migrate
	// Replenish: a scheduler granted a VCPU fresh budget/quota/credits.
	// Arg is the granted amount in ns.
	Replenish
	// Deplete: a VCPU exhausted its budget/quota/credits.
	Deplete
	// GuestSwitch: the guest switched the process running on a VCPU.
	// Task names the incoming job's task.
	GuestSwitch
	// Admit / Reject: an admission-control verdict. Host-level events
	// carry the reservation budget in Arg; guest-level events name the
	// task and carry its slice in Arg.
	Admit
	Reject

	// NumKinds is the number of event kinds (for per-kind arrays).
	NumKinds = int(Reject) + 1
)

// kindNames are the wire names, stable across releases (JSON/CSV use them).
var kindNames = [NumKinds]string{
	"dispatch", "preempt", "job-done", "job-miss",
	"hc-inc-bw", "hc-dec-bw", "hc-inc-dec-bw",
	"migrate", "replenish", "deplete", "guest-switch",
	"admit", "reject",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// KindFromString resolves a wire name back to its Kind.
func KindFromString(s string) (Kind, error) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("trace: unknown event kind %q", s)
}

// MarshalJSON encodes the kind as its wire name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON decodes a wire name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	got, err := KindFromString(s)
	if err != nil {
		return err
	}
	*k = got
	return nil
}

// MaxPCPUs is the largest host the tools accept: scenario.Validate
// rejects more pcpus, and ReadJSONL rejects an event whose pcpu is at or
// above it. Per-PCPU tables and reports have a row for every PCPU up to
// the largest id seen, so the bound keeps them small whatever a trace
// names. 4096 is far above the paper's 15-PCPU host.
const MaxPCPUs = 4096

// Event is one telemetry record: a fixed-size value type, cheap to copy
// and free of heap references beyond the identifying strings (which alias
// long-lived names, never per-event allocations).
type Event struct {
	At   simtime.Time `json:"at_ns"`
	Kind Kind         `json:"kind"`
	// PCPU is the physical CPU the event concerns (-1 = none).
	PCPU int `json:"pcpu"`
	// VM and VCPU identify the virtual CPU (VM empty = none/idle).
	VM   string `json:"vm,omitempty"`
	VCPU int    `json:"vcpu,omitempty"`
	// Task names the application, where one is involved.
	Task string `json:"task,omitempty"`
	// Arg is the kind-specific payload; see the Kind constants.
	Arg int64 `json:"arg,omitempty"`
}

// ArgDuration reads Arg as a duration, for the kinds that carry one.
func (e Event) ArgDuration() simtime.Duration { return simtime.Duration(e.Arg) }
