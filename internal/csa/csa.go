// Package csa implements the offline compositional schedulability analysis
// RT-Xen needs to configure its VM interfaces — the stand-in for the CARTS
// tool and the DMPR model referenced in §4.2 of the RTVirt paper.
//
// A component (one VCPU's task set under EDF) is abstracted by a periodic
// resource interface Γ = (Π, Θ): Θ units of CPU every Π. The component is
// schedulable iff the EDF demand bound function never exceeds the
// interface's worst-case supply bound function (Shin & Lee's periodic
// resource model). CARTS searches candidate periods for the interface with
// minimal bandwidth; the host then needs enough physical CPUs to schedule
// all VM interfaces under gEDF, which this package estimates with the
// Bertogna–Cirinei–Lipari interference test (the stand-in for DMPR's
// claimed-CPU count; EXPERIMENTS.md records where the two differ).
//
// The pessimism of this analysis — interfaces strictly larger than the
// task bandwidth, claimed CPUs strictly larger than allocated bandwidth —
// is not a bug: it is the waste the paper's Figure 3 quantifies.
package csa

import (
	"fmt"
	"slices"
	"sort"

	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// Interface is a periodic resource abstraction: Budget units of CPU time
// in every Period.
type Interface struct {
	Period simtime.Duration
	Budget simtime.Duration
}

// Bandwidth reports Budget/Period.
func (i Interface) Bandwidth() float64 {
	if i.Period == 0 {
		return 0
	}
	return float64(i.Budget) / float64(i.Period)
}

// String implements fmt.Stringer.
func (i Interface) String() string {
	return fmt.Sprintf("(Θ=%v, Π=%v)", i.Budget, i.Period)
}

// DBF is the EDF demand bound function of a task set with implicit
// deadlines: the maximum execution demand that must complete within any
// window of length t.
func DBF(tasks []task.Params, t simtime.Duration) simtime.Duration {
	var demand simtime.Duration
	for _, p := range tasks {
		if p.Period <= 0 {
			continue
		}
		demand += simtime.Duration(int64(t)/int64(p.Period)) * p.Slice
	}
	return demand
}

// SBF is the worst-case supply bound function of the periodic resource
// (Π, Θ): the least supply guaranteed in any window of length t
// (Shin & Lee 2003).
func SBF(iface Interface, t simtime.Duration) simtime.Duration {
	pi, theta := int64(iface.Period), int64(iface.Budget)
	if theta <= 0 || pi <= 0 || theta > pi {
		return 0
	}
	x := int64(t) - (pi - theta)
	if x < 0 {
		return 0
	}
	k := x / pi
	supply := k * theta
	if rem := x - k*pi - (pi - theta); rem > 0 {
		supply += rem
	}
	return simtime.Duration(supply)
}

// testPoints returns the instants at which dbf ≤ sbf must be verified: the
// absolute deadlines (period multiples) of every task up to the analysis
// horizon.
func testPoints(tasks []task.Params, horizon simtime.Duration) []simtime.Duration {
	n := 0
	for _, p := range tasks {
		if p.Period > 0 {
			n += int(horizon / p.Period)
		}
	}
	pts := make([]simtime.Duration, 0, n)
	for _, p := range tasks {
		if p.Period <= 0 {
			continue
		}
		for t := p.Period; t <= horizon; t += p.Period {
			pts = append(pts, t)
		}
	}
	slices.Sort(pts)
	return slices.Compact(pts)
}

// horizon picks the analysis horizon: the task-set hyperperiod, capped to
// keep the analysis tractable (64 × the largest period at minimum).
func horizon(tasks []task.Params) simtime.Duration {
	lcm := simtime.Duration(1)
	var maxP simtime.Duration
	for _, p := range tasks {
		if p.Period > maxP {
			maxP = p.Period
		}
	}
	cap := 64 * maxP
	for _, p := range tasks {
		g := gcd(int64(lcm), int64(p.Period))
		l := int64(lcm) / g * int64(p.Period)
		if l > int64(cap) || l <= 0 {
			return cap
		}
		lcm = simtime.Duration(l)
	}
	if lcm < 2*maxP {
		lcm = 2 * maxP
	}
	return lcm
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

// Schedulable reports whether the EDF task set fits on the interface:
// dbf(t) ≤ sbf(t) at every deadline up to the horizon.
func Schedulable(tasks []task.Params, iface Interface) bool {
	var util float64
	for _, p := range tasks {
		util += p.Bandwidth()
	}
	if util > iface.Bandwidth()+1e-12 {
		return false
	}
	for _, t := range testPoints(tasks, horizon(tasks)) {
		if DBF(tasks, t) > SBF(iface, t) {
			return false
		}
	}
	return true
}

// MinBudget computes the smallest budget Θ for which the task set is
// schedulable on a (period, Θ) interface, or false if even Θ = period
// fails.
func MinBudget(tasks []task.Params, period simtime.Duration) (simtime.Duration, bool) {
	return MinBudgetQ(tasks, period, 1)
}

// MinBudgetQ is MinBudget with the budget rounded up to a multiple of
// quantum. CARTS computes interfaces at the resolution of its inputs
// (whole milliseconds in §4.2); passing that resolution reproduces the
// paper's interfaces, while 1ns gives the continuous optimum.
func MinBudgetQ(tasks []task.Params, period, quantum simtime.Duration) (simtime.Duration, bool) {
	if quantum <= 0 {
		quantum = 1
	}
	if !Schedulable(tasks, Interface{Period: period, Budget: period}) {
		return 0, false
	}
	lo, hi := simtime.Duration(0), period
	// Binary search: Schedulable is monotone in Θ.
	for lo < hi {
		mid := lo + (hi-lo)/2
		if Schedulable(tasks, Interface{Period: period, Budget: mid}) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if r := hi % quantum; r != 0 {
		hi += quantum - r
	}
	if hi > period {
		hi = period
	}
	return hi, true
}

// BestInterface searches the candidate periods for the minimal-bandwidth
// interface, mirroring the trial-and-error CARTS workflow of §4.2 ("we try
// different period values and choose the one that gives the smallest
// bandwidth requirement").
func BestInterface(tasks []task.Params, candidates []simtime.Duration) (Interface, bool) {
	return BestInterfaceQ(tasks, candidates, 1)
}

// BestInterfaceQ is BestInterface with budgets quantized (see MinBudgetQ).
func BestInterfaceQ(tasks []task.Params, candidates []simtime.Duration, quantum simtime.Duration) (Interface, bool) {
	best := Interface{}
	found := false
	for _, period := range candidates {
		if period <= 0 {
			continue
		}
		theta, ok := MinBudgetQ(tasks, period, quantum)
		if !ok {
			continue
		}
		c := Interface{Period: period, Budget: theta}
		if !found || c.Bandwidth() < best.Bandwidth()-1e-12 {
			best = c
			found = true
		}
	}
	return best, found
}

// DefaultCandidates returns the period grid used to configure the
// experiments: every millisecond from 1ms up to the smallest task period.
func DefaultCandidates(tasks []task.Params) []simtime.Duration {
	minP := simtime.Infinite
	for _, p := range tasks {
		if p.Period < minP {
			minP = p.Period
		}
	}
	var out []simtime.Duration
	for p := simtime.Millis(1); p <= minP; p += simtime.Millis(1) {
		out = append(out, p)
	}
	if len(out) == 0 {
		out = append(out, minP)
	}
	return out
}

// MinProcsGEDF estimates the number of physical CPUs a set of VM-interface
// servers claims under global EDF, using the Bertogna–Cirinei–Lipari
// interference test. This is the stand-in for the DMPR claimed-CPU count
// used in §4.2: like DMPR it is sufficient (pessimistic), so it reproduces
// the claimed ≫ allocated gap of Figure 3.
func MinProcsGEDF(servers []Interface, maxProcs int) (int, bool) {
	if len(servers) == 0 {
		return 0, true
	}
	for m := 1; m <= maxProcs; m++ {
		if gedfSchedulable(servers, m) {
			return m, true
		}
	}
	return 0, false
}

// gedfSchedulable is the BCL sufficient test for implicit-deadline servers
// under gEDF on m processors.
func gedfSchedulable(servers []Interface, m int) bool {
	for k, sk := range servers {
		slack := int64(sk.Period - sk.Budget)
		if slack < 0 {
			return false
		}
		var interference int64
		for i, si := range servers {
			if i == k {
				continue
			}
			w := workload(si, sk.Period)
			if w > slack {
				w = slack + 1
			}
			interference += w
		}
		if interference > int64(m)*slack {
			return false
		}
	}
	return true
}

// workload bounds server i's execution within a window of length d.
func workload(s Interface, d simtime.Duration) int64 {
	c, t := int64(s.Budget), int64(s.Period)
	n := (int64(d) + t - c) / t
	rem := int64(d) + t - c - n*t
	if rem > c {
		rem = c
	}
	if rem < 0 {
		rem = 0
	}
	return n*c + rem
}

// PartitionedProcs counts the CPUs a first-fit-decreasing partitioning of
// the servers needs — the deployment-oriented DMPR stand-in used for the
// scalability experiment's admission (§4.5): a heavily-utilized VCPU
// server effectively claims a processor of its own.
func PartitionedProcs(servers []Interface) int {
	bws := make([]float64, len(servers))
	for i, s := range servers {
		bws[i] = s.Bandwidth()
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(bws)))
	var bins []float64
	for _, bw := range bws {
		placed := false
		for i := range bins {
			if bins[i]+bw <= 1.0+1e-9 {
				bins[i] += bw
				placed = true
				break
			}
		}
		if !placed {
			bins = append(bins, bw)
		}
	}
	return len(bins)
}

// VMConfig is the offline RT-Xen configuration for one VM: one interface
// per VCPU.
type VMConfig struct {
	Name   string
	VCPUs  []Interface
	TaskBW float64
}

// AllocatedCPUs sums the interface bandwidths (the "RT-Xen: Allocated"
// series of Figure 3).
func AllocatedCPUs(vms []VMConfig) float64 {
	var sum float64
	for _, vm := range vms {
		for _, i := range vm.VCPUs {
			sum += i.Bandwidth()
		}
	}
	return sum
}

// ClaimedCPUs computes the CPUs that must be set aside for the VM servers
// (the "RT-Xen: Claimed" series of Figure 3), using the partitioned
// first-fit-decreasing packing as the DMPR stand-in. GEDFClaimedCPUs gives
// the alternative interference-based estimate.
func ClaimedCPUs(vms []VMConfig, maxProcs int) (int, bool) {
	var servers []Interface
	for _, vm := range vms {
		servers = append(servers, vm.VCPUs...)
	}
	n := PartitionedProcs(servers)
	return n, n <= maxProcs
}

// GEDFClaimedCPUs computes the claimed CPUs under the BCL gEDF
// interference test — the estimate that reproduces the 15-CPU claim of
// §4.4's periodic contention experiment.
func GEDFClaimedCPUs(vms []VMConfig, maxProcs int) (int, bool) {
	var servers []Interface
	for _, vm := range vms {
		servers = append(servers, vm.VCPUs...)
	}
	return MinProcsGEDF(servers, maxProcs)
}
