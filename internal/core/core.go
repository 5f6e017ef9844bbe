// Package core assembles the RTVirt system — the paper's primary
// contribution — and, for comparison, the baseline stacks the evaluation
// measures against.
//
// An RTVirt system is the composition of:
//   - the VMM kernel (internal/hv) with its paravirtual cross-layer
//     channel (sched_rtvirt() hypercall + shared-memory deadline slots),
//   - the DP-WRAP host scheduler (internal/sched/dpwrap) consuming the
//     published deadlines,
//   - cross-layer guest OSes (internal/guest) that derive VCPU
//     reservations from their RTAs and publish next-earliest deadlines.
//
// The baselines swap the host scheduler and disable the cross-layer
// channel: RT-Xen (gEDF + deferrable server, configured offline via
// internal/csa), plain two-level EDF (polling servers, Figure 1), and
// Xen's Credit scheduler.
package core

import (
	"fmt"

	"rtvirt/internal/guest"
	"rtvirt/internal/hv"
	"rtvirt/internal/sched/credit"
	"rtvirt/internal/sched/dpwrap"
	"rtvirt/internal/sched/rtxen"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
)

// Stack selects the scheduling architecture of a System.
type Stack int

// Stacks.
const (
	// RTVirt is the paper's system: cross-layer pEDF guests over DP-WRAP.
	RTVirt Stack = iota
	// RTXen is the primary baseline: pEDF guests over gEDF + deferrable
	// servers, configured offline.
	RTXen
	// TwoLevelEDF is the motivating baseline of Figure 1: pEDF guests over
	// an EDF VMM with polling servers and no coordination.
	TwoLevelEDF
	// Credit is Xen's default proportional-share scheduler.
	Credit
)

// String implements fmt.Stringer.
func (s Stack) String() string {
	switch s {
	case RTVirt:
		return "rtvirt"
	case RTXen:
		return "rt-xen"
	case TwoLevelEDF:
		return "two-level-edf"
	case Credit:
		return "credit"
	default:
		return fmt.Sprintf("Stack(%d)", int(s))
	}
}

// Config describes a System.
type Config struct {
	Stack Stack
	// PCPUs is the number of physical CPUs (the paper's testbed exposes
	// 15 to DomUs after pinning Dom0).
	PCPUs int
	// Seed fixes the simulation's random stream.
	Seed uint64
	// Costs is the platform cost model; zero-value CostModel removes all
	// overheads (useful in unit tests), DefaultCosts mirrors §4.
	Costs hv.CostModel
	// Slack is the per-VCPU budget slack (500µs in §4.1). Only meaningful
	// for the RTVirt stack.
	Slack simtime.Duration
	// DPWrap tunes the RTVirt host scheduler (min/max global slice).
	DPWrap dpwrap.Config
	// RTXen tunes the RT-Xen host scheduler.
	RTXen rtxen.Config
	// Credit tunes the Credit host scheduler.
	Credit credit.Config
	// SharedSim, when non-nil, runs this system on an existing simulator
	// clock — several hosts in one simulation (multi-host clusters, §6).
	SharedSim *sim.Simulator
}

// DefaultConfig mirrors the evaluation platform of §4.1.
func DefaultConfig(stack Stack) Config {
	return Config{
		Stack:  stack,
		PCPUs:  15,
		Seed:   1,
		Costs:  hv.DefaultCosts(),
		Slack:  simtime.Micros(500),
		DPWrap: dpwrap.DefaultConfig(),
		RTXen:  rtxen.DefaultConfig(),
		Credit: credit.DefaultConfig(),
	}
}

// System is a complete simulated virtualization host.
type System struct {
	Cfg  Config
	Sim  *sim.Simulator
	Host *hv.Host

	guests []*guest.OS
}

// NewSystem builds a host with the configured stack.
func NewSystem(cfg Config) *System {
	if cfg.PCPUs <= 0 {
		cfg.PCPUs = 1
	}
	s := cfg.SharedSim
	if s == nil {
		s = sim.New(cfg.Seed)
	}
	var sched hv.HostScheduler
	switch cfg.Stack {
	case RTVirt:
		sched = dpwrap.New(cfg.DPWrap)
	case RTXen:
		sched = rtxen.New(cfg.RTXen)
	case TwoLevelEDF:
		c := cfg.RTXen
		c.Deferrable = false
		sched = rtxen.New(c)
	case Credit:
		sched = credit.New(cfg.Credit)
	default:
		panic(fmt.Sprintf("core: unknown stack %v", cfg.Stack))
	}
	h := hv.NewHost(s, cfg.PCPUs, sched, cfg.Costs)
	return &System{Cfg: cfg, Sim: s, Host: h}
}

// GuestOpts tunes a guest created with NewGuestOpts.
type GuestOpts struct {
	VCPUs    int
	MaxVCPUs int               // hotplug bound (0 = no hotplug)
	Slack    *simtime.Duration // nil = the system default
	// GEDF switches the guest's process scheduler from partitioned EDF to
	// global EDF across its VCPUs (the §6 alternative).
	GEDF bool
	// PrioritySlack scales each VCPU's slack by (1 + highest task
	// priority) — §6's priority-proportional provisioning.
	PrioritySlack bool
}

// NewGuest creates a VM whose guest configuration matches the stack:
// cross-layer for RTVirt, static otherwise.
func (sys *System) NewGuest(name string, vcpus int) (*guest.OS, error) {
	return sys.NewGuestOpts(name, GuestOpts{VCPUs: vcpus})
}

// NewGuestOpts creates a VM with explicit guest options.
func (sys *System) NewGuestOpts(name string, opts GuestOpts) (*guest.OS, error) {
	gc := guest.Config{
		VCPUCapacity:  1.0,
		MaxVCPUs:      opts.MaxVCPUs,
		GEDF:          opts.GEDF,
		PrioritySlack: opts.PrioritySlack,
	}
	if sys.Cfg.Stack == RTVirt {
		gc.CrossLayer = true
		gc.Slack = sys.Cfg.Slack
	}
	if opts.Slack != nil {
		gc.Slack = *opts.Slack
	}
	g, err := guest.NewOS(sys.Host, name, gc, opts.VCPUs)
	if err != nil {
		return nil, err
	}
	sys.guests = append(sys.guests, g)
	return g, nil
}

// NewServerGuest creates a VM with explicit per-VCPU server reservations —
// the offline-configured interface of RT-Xen and the two-level baseline.
func (sys *System) NewServerGuest(name string, servers []hv.Reservation, weight int) (*guest.OS, error) {
	gc := guest.Config{VCPUCapacity: 1.0}
	if sys.Cfg.Stack == RTVirt {
		gc.CrossLayer = true
		gc.Slack = sys.Cfg.Slack
	}
	g, err := guest.NewOS(sys.Host, name, gc, 0)
	if err != nil {
		return nil, err
	}
	for _, r := range servers {
		if _, err := g.AddVCPU(r, weight); err != nil {
			sys.Host.RemoveVM(g.VM()) // don't leak a partially built VM
			return nil, fmt.Errorf("core: vcpu for %s: %w", name, err)
		}
	}
	sys.guests = append(sys.guests, g)
	return g, nil
}

// NewWeightedGuest creates a VM for the Credit stack with the given weight
// on each of its VCPUs.
func (sys *System) NewWeightedGuest(name string, vcpus, weight int) (*guest.OS, error) {
	gc := guest.Config{VCPUCapacity: 1e9} // Credit does no RT admission
	g, err := guest.NewOS(sys.Host, name, gc, 0)
	if err != nil {
		return nil, err
	}
	for i := 0; i < vcpus; i++ {
		if _, err := g.AddVCPU(hv.Reservation{Period: simtime.Millis(10)}, weight); err != nil {
			sys.Host.RemoveVM(g.VM()) // don't leak a partially built VM
			return nil, err
		}
	}
	sys.guests = append(sys.guests, g)
	return g, nil
}

// Guests returns the created guests in creation order.
func (sys *System) Guests() []*guest.OS { return sys.guests }

// Start installs the scheduler and dispatches the PCPUs.
func (sys *System) Start() { sys.Host.Start() }

// Run advances the simulation by d.
func (sys *System) Run(d simtime.Duration) { sys.Sim.RunFor(d) }

// Now reports the current simulated time.
func (sys *System) Now() simtime.Time { return sys.Sim.Now() }

// AllocatedBandwidth sums the host-level reservations across guests, in
// CPUs — the "Allocated" metric of Figure 3.
func (sys *System) AllocatedBandwidth() float64 {
	var sum float64
	for _, g := range sys.guests {
		sum += g.AllocatedBandwidth()
	}
	return sum
}

// OverheadReport summarises the scheduler overhead (Table 6).
type OverheadReport struct {
	ScheduleTime  simtime.Duration
	CtxSwitchTime simtime.Duration
	Migrations    uint64
	Hypercalls    uint64
	Percent       float64
}

// Overhead reports the host's accumulated scheduling overhead.
func (sys *System) Overhead() OverheadReport {
	o := sys.Host.Overhead
	return OverheadReport{
		ScheduleTime:  o.ScheduleTime,
		CtxSwitchTime: o.CtxSwitchTime,
		Migrations:    o.Migrations,
		Hypercalls:    o.Hypercalls,
		Percent:       sys.Host.OverheadPercent(),
	}
}
