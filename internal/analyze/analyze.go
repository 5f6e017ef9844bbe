// Package analyze performs offline compositional schedulability analysis
// on a scenario file — the role CARTS plays in the paper's workflow (§2.1,
// §4.2). Given the VMs and tasks of a scenario, it derives:
//
//   - per-VM VCPU plans for the static RT-Xen stack: tasks are packed
//     first-fit-decreasing onto VCPUs and each VCPU gets its minimal
//     periodic-resource interface (Θ, Π) from the Shin & Lee analysis;
//   - per-VM VCPU plans for RTVirt: the same packing, but each VCPU is
//     sized by the §3.3 guest formula (budget = ⌈ΣBW·minP⌉ + slack over
//     the smallest task period): guest.Config.Reservation, the function
//     internal/guest reserves with at run time;
//   - host-level admission: allocated bandwidth, claimed CPUs under both
//     the partitioned (FFD) and gEDF (BCL) stand-ins for DMPR, and the
//     bandwidth saving RTVirt realizes over the static interfaces.
//
// The same JSON file drives both this analyzer and cmd/rtvirt-sim, so a
// scenario can be admission-checked before it is simulated.
package analyze

import (
	"fmt"
	"sort"

	"rtvirt/internal/csa"
	"rtvirt/internal/guest"
	"rtvirt/internal/scenario"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// Options tunes the analysis.
type Options struct {
	// Quantum rounds RT-Xen server budgets up, as CARTS does for a real
	// hypervisor tick. Zero means the 1ms default used throughout §4.
	Quantum simtime.Duration
	// Period fixes the server period for every interface. Zero sweeps the
	// millisecond grid up to the smallest task period and keeps the
	// lowest-bandwidth result (csa.BestInterfaceQ).
	Period simtime.Duration
	// Slack is the per-VCPU budget slack RTVirt's guest adds to absorb
	// scheduling overhead. Zero means the 500µs default of §3.3.
	Slack simtime.Duration
	// MaxProcs caps the gEDF claimed-CPU search. Zero means 128.
	MaxProcs int
}

// validate rejects negative options: zero selects a default, but a
// negative quantum, period, slack or CPU cap has no meaning, and letting
// one through would shrink reservations below the task demand.
func (o Options) validate() error {
	switch {
	case o.Quantum < 0:
		return fmt.Errorf("analyze: negative quantum %v", o.Quantum)
	case o.Period < 0:
		return fmt.Errorf("analyze: negative server period %v", o.Period)
	case o.Slack < 0:
		return fmt.Errorf("analyze: negative slack %v", o.Slack)
	case o.MaxProcs < 0:
		return fmt.Errorf("analyze: negative gEDF CPU cap %d", o.MaxProcs)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.Quantum == 0 {
		o.Quantum = simtime.Millis(1)
	}
	if o.Slack == 0 {
		o.Slack = simtime.Micros(500)
	}
	if o.MaxProcs == 0 {
		o.MaxProcs = 128
	}
	return o
}

// VCPUPlan is one VCPU's worth of tasks plus the resource it needs.
type VCPUPlan struct {
	// Interface is the periodic resource reserved for this VCPU.
	Interface csa.Interface
	// Tasks names the tasks packed onto this VCPU.
	Tasks []string
	// TaskBW is the summed utilization of those tasks.
	TaskBW float64
}

// Bandwidth reports the reserved fraction of a physical CPU.
func (p VCPUPlan) Bandwidth() float64 { return p.Interface.Bandwidth() }

// VMAnalysis is the per-VM result.
type VMAnalysis struct {
	// Name is the VM's scenario name.
	Name string
	// TaskBW is the summed utilization of the VM's real-time tasks.
	TaskBW float64
	// Background counts best-effort and evader tasks, which need no
	// reservation.
	Background int
	// RTXen holds one plan per VCPU under static interfaces.
	RTXen []VCPUPlan
	// RTXenBW sums the static interface bandwidths.
	RTXenBW float64
	// RTVirt holds one plan per VCPU under the §3.3 guest sizing.
	RTVirt []VCPUPlan
	// RTVirtBW sums the RTVirt reservation bandwidths.
	RTVirtBW float64
	// DeclaredVCPUs echoes the scenario's vcpus field so callers can spot
	// plans that need more virtual CPUs than the scenario declared.
	DeclaredVCPUs int
}

// HostAnalysis is the whole-scenario result.
type HostAnalysis struct {
	// PCPUs is the physical CPU count being admitted against.
	PCPUs int
	// VMs holds the per-VM plans.
	VMs []VMAnalysis
	// TaskBW is the total real-time utilization across all VMs.
	TaskBW float64
	// RTXenAllocated sums every static interface's bandwidth (the
	// "Allocated" series of Figure 3).
	RTXenAllocated float64
	// RTXenClaimedFFD is the CPUs a partitioned packing of the interfaces
	// sets aside (the "Claimed" series of Figure 3).
	RTXenClaimedFFD int
	// RTXenClaimedGEDF is the BCL gEDF claimed-CPU estimate, or 0 when the
	// test finds no bound within Options.MaxProcs.
	RTXenClaimedGEDF int
	// RTXenAdmitted reports whether the claimed CPUs fit the host.
	RTXenAdmitted bool
	// RTVirtAllocated sums the RTVirt reservation bandwidths.
	RTVirtAllocated float64
	// RTVirtAdmitted reports whether RTVirt's fluid allocation fits.
	RTVirtAdmitted bool
	// SavingPct is the bandwidth RTVirt returns to the host relative to
	// the static interfaces, in percent.
	SavingPct float64
}

// Analyze derives the admission plan for a scenario. The scenario must
// pass Validate and no option may be negative; tasks with kind
// "background" are excluded from reservations and merely counted.
func Analyze(sc scenario.Scenario, opt Options) (HostAnalysis, error) {
	if err := opt.validate(); err != nil {
		return HostAnalysis{}, err
	}
	opt = opt.withDefaults()
	if err := sc.Validate(); err != nil {
		return HostAnalysis{}, err
	}
	host := HostAnalysis{PCPUs: sc.HostPCPUs()}
	var allIfaces []csa.Interface
	for _, vm := range sc.VMs {
		va, err := analyzeVM(vm, opt)
		if err != nil {
			return HostAnalysis{}, err
		}
		host.VMs = append(host.VMs, va)
		host.TaskBW += va.TaskBW
		host.RTXenAllocated += va.RTXenBW
		host.RTVirtAllocated += va.RTVirtBW
		for _, p := range va.RTXen {
			allIfaces = append(allIfaces, p.Interface)
		}
	}
	host.RTXenClaimedFFD = csa.PartitionedProcs(allIfaces)
	if n, ok := csa.MinProcsGEDF(allIfaces, opt.MaxProcs); ok {
		host.RTXenClaimedGEDF = n
	}
	host.RTXenAdmitted = host.RTXenClaimedFFD <= host.PCPUs
	host.RTVirtAdmitted = host.RTVirtAllocated <= float64(host.PCPUs)+1e-9
	if host.RTXenAllocated > 0 {
		host.SavingPct = 100 * (host.RTXenAllocated - host.RTVirtAllocated) / host.RTXenAllocated
	}
	return host, nil
}

// rtTask is a reservable task drawn from the scenario.
type rtTask struct {
	name   string
	params task.Params
	bw     float64
	prio   int
}

func analyzeVM(vm scenario.VM, opt Options) (VMAnalysis, error) {
	va := VMAnalysis{Name: vm.Name, DeclaredVCPUs: vm.VCPUs}
	if va.DeclaredVCPUs <= 0 {
		va.DeclaredVCPUs = 1
	}
	// The guest's own sizing rule, with the per-VM slack override and §6
	// priority-proportional slack it will apply at run time.
	sizing := guest.Config{Slack: opt.Slack, PrioritySlack: vm.PrioritySlack}
	if vm.SlackUS != nil {
		sizing.Slack = simtime.Micros(*vm.SlackUS)
	}
	var rts []rtTask
	for i, ts := range vm.Tasks {
		// scenario runs an evader unreserved, like a background task.
		if ts.Kind == "background" || ts.Kind == "evader" {
			va.Background++
			continue
		}
		p := task.Params{
			Slice:  simtime.Micros(ts.SliceUS),
			Period: simtime.Micros(ts.PeriodUS),
		}
		name := ts.Name
		if name == "" {
			name = fmt.Sprintf("task%d", i)
		}
		rts = append(rts, rtTask{name: name, params: p, bw: p.Bandwidth(), prio: ts.Priority})
		va.TaskBW += p.Bandwidth()
	}
	if len(rts) == 0 {
		return va, nil
	}

	// Pack first-fit-decreasing by utilization, the same order the guest's
	// repack plan and the FFD claimed-CPU bound use. A task joins the
	// first VCPU that can still be served by a feasible interface.
	sort.SliceStable(rts, func(i, j int) bool { return rts[i].bw > rts[j].bw })
	var bins [][]rtTask
	for _, rt := range rts {
		placed := false
		for b := range bins {
			if _, ok := interfaceFor(append(paramsOf(bins[b]), rt.params), opt); ok {
				bins[b] = append(bins[b], rt)
				placed = true
				break
			}
		}
		if !placed {
			if _, ok := interfaceFor([]task.Params{rt.params}, opt); !ok {
				return va, fmt.Errorf("analyze: VM %q task %q (%.3f CPUs) has no feasible interface",
					vm.Name, rt.name, rt.bw)
			}
			bins = append(bins, []rtTask{rt})
		}
	}

	for _, bin := range bins {
		ps := paramsOf(bin)
		iface, _ := interfaceFor(ps, opt) // feasible by construction
		names := make([]string, len(bin))
		var bw float64
		minP := simtime.Infinite
		prio := 0
		for i, rt := range bin {
			names[i] = rt.name
			bw += rt.bw
			minP = min(minP, rt.params.Period)
			prio = max(prio, rt.prio)
		}
		va.RTXen = append(va.RTXen, VCPUPlan{Interface: iface, Tasks: names, TaskBW: bw})
		va.RTXenBW += iface.Bandwidth()

		r := sizing.Reservation(bw, minP, prio)
		res := csa.Interface{Period: r.Period, Budget: r.Budget}
		va.RTVirt = append(va.RTVirt, VCPUPlan{Interface: res, Tasks: names, TaskBW: bw})
		va.RTVirtBW += res.Bandwidth()
	}
	return va, nil
}

func paramsOf(bin []rtTask) []task.Params {
	out := make([]task.Params, len(bin))
	for i, rt := range bin {
		out[i] = rt.params
	}
	return out
}

// interfaceFor computes the minimal feasible interface for one VCPU's
// tasks, honouring the fixed-period option.
func interfaceFor(ts []task.Params, opt Options) (csa.Interface, bool) {
	if opt.Period > 0 {
		theta, ok := csa.MinBudgetQ(ts, opt.Period, opt.Quantum)
		if !ok {
			return csa.Interface{}, false
		}
		return csa.Interface{Period: opt.Period, Budget: theta}, true
	}
	return csa.BestInterfaceQ(ts, csa.DefaultCandidates(ts), opt.Quantum)
}
