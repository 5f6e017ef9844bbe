package quick

import (
	"rtvirt/internal/check"
	"rtvirt/internal/core"
	"rtvirt/internal/scenario"
)

// maxShrinkRuns caps the simulations Shrink may spend per failure.
const maxShrinkRuns = 200

// Shrink greedily minimizes a violating scenario by delta-debugging: it
// repeatedly tries structural reductions — drop a VM, drop a task, drop a
// server reservation, halve the run length, remove a PCPU — and adopts any
// candidate that still violates an invariant, restarting the scan from the
// reduced world until a fixpoint or the run budget. Returns the minimized
// scenario, its violations, the number of accepted reductions, and the
// simulations spent.
//
// "Still fails" means any violation at all, not the original one: chasing
// a specific oracle across reductions is fragile (shrinking often morphs a
// bandwidth breach into the budget breach underneath it), and any minimal
// violating world is a good reproducer.
func Shrink(sc scenario.Scenario, stack core.Stack) (scenario.Scenario, []check.Violation, int, int) {
	runs := 0
	probe := func(c scenario.Scenario) []check.Violation {
		runs++
		vs, err := runOne(c, stack, true)
		if err != nil {
			// Build rejections count as "does not fail".
			return nil
		}
		return vs
	}
	min, vs, steps := shrinkWith(sc, probe, func() bool { return runs >= maxShrinkRuns })
	return min, vs, steps, runs
}

// shrinkWith is the probe-agnostic shrinking loop: probe returns the
// candidate's violations (empty = candidate passes), exhausted stops the
// walk early. Separated from Shrink so the mechanics are testable with a
// synthetic predicate.
func shrinkWith(sc scenario.Scenario, probe func(scenario.Scenario) []check.Violation, exhausted func() bool) (scenario.Scenario, []check.Violation, int) {
	cur := sc
	curVs := probe(cur)
	if len(curVs) == 0 {
		// The caller observed a violation but the repro does not fail in
		// isolation — report it unshrunk rather than lose it.
		return cur, curVs, 0
	}
	steps := 0
	for !exhausted() {
		cand, vs, ok := firstFailing(cur, probe, exhausted)
		if !ok {
			break
		}
		cur, curVs = cand, vs
		steps++
	}
	return cur, curVs, steps
}

// firstFailing returns the first one-step reduction that still fails.
func firstFailing(sc scenario.Scenario, probe func(scenario.Scenario) []check.Violation, exhausted func() bool) (scenario.Scenario, []check.Violation, bool) {
	for _, cand := range reductions(sc) {
		if exhausted() {
			return scenario.Scenario{}, nil, false
		}
		if vs := probe(cand); len(vs) > 0 {
			return cand, vs, true
		}
	}
	return scenario.Scenario{}, nil, false
}

// reductions enumerates one-step-smaller variants of sc, structurally
// boldest first (whole VMs before single tasks) so the greedy walk takes
// big steps early.
func reductions(sc scenario.Scenario) []scenario.Scenario {
	var out []scenario.Scenario
	if len(sc.VMs) > 1 {
		for i := range sc.VMs {
			c := cloneScenario(sc)
			c.VMs = append(c.VMs[:i], c.VMs[i+1:]...)
			out = append(out, c)
		}
	}
	for i, vm := range sc.VMs {
		for j := range vm.Tasks {
			c := cloneScenario(sc)
			c.VMs[i].Tasks = append(c.VMs[i].Tasks[:j], c.VMs[i].Tasks[j+1:]...)
			out = append(out, c)
		}
		for j, ts := range vm.Tasks {
			// Strip the open-loop arrival block (falling back to the
			// closed-form sporadic client) and the adaptive controller
			// before dropping the task entirely.
			if ts.Arrivals != nil {
				c := cloneScenario(sc)
				c.VMs[i].Tasks[j].Arrivals = nil
				out = append(out, c)
			}
			if ts.Adaptive != nil {
				c := cloneScenario(sc)
				c.VMs[i].Tasks[j].Adaptive = nil
				out = append(out, c)
			}
			if ts.Evader != nil {
				c := cloneScenario(sc)
				c.VMs[i].Tasks[j].Evader = nil
				out = append(out, c)
			}
		}
		if len(vm.Servers) > 1 {
			for j := range vm.Servers {
				c := cloneScenario(sc)
				c.VMs[i].Servers = append(c.VMs[i].Servers[:j], c.VMs[i].Servers[j+1:]...)
				out = append(out, c)
			}
		}
	}
	if sc.PCPUs > 1 {
		c := cloneScenario(sc)
		c.PCPUs--
		out = append(out, c)
	}
	if sc.Seconds > 1 {
		c := cloneScenario(sc)
		c.Seconds /= 2
		out = append(out, c)
	}
	out = append(out, costReductions(sc)...)
	return out
}

// costReductions minimizes the platform-cost overrides: drop the whole
// block, drop one term, collapse a distribution-valued term to a constant
// (removing the repro's dependence on the cost RNG stream), or zero a VM's
// declared working set.
func costReductions(sc scenario.Scenario) []scenario.Scenario {
	var out []scenario.Scenario
	if sc.Costs != nil {
		c := cloneScenario(sc)
		c.Costs = nil
		out = append(out, c)
		for i, f := range costFields(sc.Costs) {
			if *f == nil {
				continue
			}
			c := cloneScenario(sc)
			*costFields(c.Costs)[i] = nil
			out = append(out, c)
		}
		for i, f := range costFields(sc.Costs) {
			if *f == nil || (*f).Const != nil {
				continue
			}
			c := cloneScenario(sc)
			*costFields(c.Costs)[i] = &scenario.CostSpec{Const: fp(constifyUS(*f))}
			out = append(out, c)
		}
	}
	for i, vm := range sc.VMs {
		if vm.WorkingSetMiB > 0 {
			c := cloneScenario(sc)
			c.VMs[i].WorkingSetMiB = 0
			out = append(out, c)
		}
	}
	return out
}

// costFields enumerates the addressable CostSpec slots of a costs block.
func costFields(c *scenario.CostsSpec) []**scenario.CostSpec {
	return []**scenario.CostSpec{
		&c.ContextSwitch, &c.CtxSwitchWarm, &c.CtxSwitchCold,
		&c.Hypercall, &c.HypercallIncBW, &c.HypercallDecBW, &c.HypercallIncDecBW,
		&c.Migration, &c.MigrationPerMiB,
		&c.ScheduleBase, &c.SchedulePerEntity, &c.GuestSwitch, &c.Tick,
	}
}

// constifyUS picks a representative constant (µs) for a distribution-form
// spec. Any valid stand-in works for shrinking; exactness is not required.
func constifyUS(s *scenario.CostSpec) float64 {
	switch {
	case s.Uniform != nil:
		return (s.Uniform.LoUS + s.Uniform.HiUS) / 2
	case s.Normal != nil:
		return s.Normal.MeanUS
	case s.LogNormal != nil:
		return s.LogNormal.MeanUS
	case s.Pareto != nil:
		return (s.Pareto.LoUS + s.Pareto.HiUS) / 2
	default:
		return 0
	}
}

// cloneScenario deep-copies the slices and cost block reductions mutate.
func cloneScenario(sc scenario.Scenario) scenario.Scenario {
	c := sc
	c.VMs = make([]scenario.VM, len(sc.VMs))
	for i, vm := range sc.VMs {
		cv := vm
		cv.Servers = append([]scenario.ServerSpec(nil), vm.Servers...)
		cv.Tasks = make([]scenario.TaskSpec, len(vm.Tasks))
		for j, ts := range vm.Tasks {
			cv.Tasks[j] = cloneTaskSpec(ts)
		}
		c.VMs[i] = cv
	}
	if sc.Costs != nil {
		cc := *sc.Costs
		c.Costs = &cc
	}
	return c
}

// cloneTaskSpec deep-copies a TaskSpec's pointer-valued blocks so a
// reduction nulling one candidate's block never aliases another's.
func cloneTaskSpec(ts scenario.TaskSpec) scenario.TaskSpec {
	c := ts
	if ts.Arrivals != nil {
		a := *ts.Arrivals
		if ts.Arrivals.Poisson != nil {
			p := *ts.Arrivals.Poisson
			a.Poisson = &p
		}
		if ts.Arrivals.Diurnal != nil {
			d := *ts.Arrivals.Diurnal
			a.Diurnal = &d
		}
		if ts.Arrivals.MMPP != nil {
			m := *ts.Arrivals.MMPP
			m.RatesHz = append([]float64(nil), m.RatesHz...)
			m.SojournMS = append([]int64(nil), m.SojournMS...)
			a.MMPP = &m
		}
		if ts.Arrivals.Flash != nil {
			f := *ts.Arrivals.Flash
			f.Surges = append([]scenario.SurgeSpec(nil), f.Surges...)
			a.Flash = &f
		}
		c.Arrivals = &a
	}
	if ts.Adaptive != nil {
		ad := *ts.Adaptive
		c.Adaptive = &ad
	}
	if ts.Evader != nil {
		ev := *ts.Evader
		c.Evader = &ev
	}
	return c
}
