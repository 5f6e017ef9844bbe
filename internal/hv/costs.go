package hv

import (
	"fmt"

	"rtvirt/internal/dist"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
)

// Cost is one platform-overhead term: either a plain constant duration or a
// random variate drawn from an internal/dist distribution. The zero value is
// a zero-cost constant, so a zero CostModel still removes every overhead.
//
// The constant form is deliberately not routed through dist.Constant: the
// dist package clamps every sample to ≥1ns (a stalled event loop is worse
// than a free event there), while a zero platform cost must stay exactly
// zero, and — more importantly — a constant Cost must never consume a draw
// from the cost RNG stream. That last property is what keeps the default
// (all-constant) model bit-identical to the historical flat constants: the
// cost stream is simply never advanced, so no golden can observe it.
type Cost struct {
	c simtime.Duration
	d dist.Duration
}

// ConstCost returns a fixed-cost term.
func ConstCost(d simtime.Duration) Cost { return Cost{c: d} }

// DistCost returns a distribution-valued cost term.
func DistCost(d dist.Duration) Cost {
	if d == nil {
		panic("hv: DistCost with nil distribution")
	}
	return Cost{d: d}
}

// Constant reports whether the term is a plain constant (never samples).
func (c Cost) Constant() bool { return c.d == nil }

// Mean reports the term's expected value.
func (c Cost) Mean() simtime.Duration {
	if c.d == nil {
		return c.c
	}
	return c.d.Mean()
}

// Sample draws the next cost. Constant terms return their value without
// touching r, so an all-constant model never advances the cost stream.
func (c Cost) Sample(r *sim.RNG) simtime.Duration {
	if c.d == nil {
		return c.c
	}
	return c.d.Sample(r)
}

// String implements fmt.Stringer.
func (c Cost) String() string {
	if c.d == nil {
		return fmt.Sprintf("const(%v)", c.c)
	}
	return c.d.String()
}

// CostModel holds the per-cause platform costs the simulator charges. Every
// term is a Cost: a constant by default (the §4 figures of the paper), or a
// distribution for calibrated-fidelity runs in the style of Mhatre &
// Chandran's hypervisor-instruction timing study. Samples are drawn from a
// dedicated per-host cost RNG stream (Host.DrawCost), never from the main
// simulation stream, so enabling noise cannot perturb workload arrivals and
// the all-constant default stays bit-identical to the historical model.
//
// The zero value removes all overheads.
type CostModel struct {
	// Per-flag sched_rtvirt() hypercall latencies: an INC_BW call walks the
	// admission path, DEC_BW only releases, and INC_DEC_BW does both halves
	// atomically. SetHypercall sets all three at once.
	HypercallIncBW    Cost
	HypercallDecBW    Cost
	HypercallIncDecBW Cost
	// Cache-state-dependent host-level VCPU switch: Warm is charged when the
	// incoming VCPU last ran on this very PCPU (or the PCPU just goes idle —
	// registers saved, caches untouched), Cold when its working set lives
	// elsewhere (first dispatch or a VCPU arriving from another PCPU).
	CtxSwitchWarm Cost
	CtxSwitchCold Cost
	// Migration is the fixed extra cost when a VCPU changes PCPU;
	// MigrationPerMiB scales it with the VM's declared working-set size
	// (VM.WorkingSetMiB), charged once per MiB on top of Migration.
	Migration       Cost
	MigrationPerMiB Cost
	// Schedule-path cost: ScheduleBase per schedule() call plus
	// SchedulePerEntity per entity the scheduler examined.
	ScheduleBase      Cost
	SchedulePerEntity Cost
	// GuestSwitch is the guest-level process switch.
	GuestSwitch Cost
	// Tick is the periodic accounting-tick cost charged per busy PCPU by
	// tick-driven schedulers (Credit).
	Tick Cost
}

// HypercallCost selects the per-flag hypercall term.
func (m *CostModel) HypercallCost(f HypercallFlag) Cost {
	switch f {
	case IncBW:
		return m.HypercallIncBW
	case DecBW:
		return m.HypercallDecBW
	default:
		return m.HypercallIncDecBW
	}
}

// SetHypercall sets every hypercall flag to the same term, for models that
// do not distinguish causes (the paper's flat 10µs).
func (m *CostModel) SetHypercall(c Cost) {
	m.HypercallIncBW = c
	m.HypercallDecBW = c
	m.HypercallIncDecBW = c
}

// SetContextSwitch sets the warm and cold switch terms to the same value.
func (m *CostModel) SetContextSwitch(c Cost) {
	m.CtxSwitchWarm = c
	m.CtxSwitchCold = c
}

// Constant reports whether every term in the model is a plain constant —
// i.e. whether a run under this model can ever touch the cost RNG stream.
func (m *CostModel) Constant() bool {
	return m.HypercallIncBW.Constant() && m.HypercallDecBW.Constant() &&
		m.HypercallIncDecBW.Constant() &&
		m.CtxSwitchWarm.Constant() && m.CtxSwitchCold.Constant() &&
		m.Migration.Constant() && m.MigrationPerMiB.Constant() &&
		m.ScheduleBase.Constant() && m.SchedulePerEntity.Constant() &&
		m.GuestSwitch.Constant() && m.Tick.Constant()
}

// DefaultCosts returns the cost model used throughout the evaluation: the
// flat constants reported in §4 of the paper. All terms are constants, so
// runs under it are bit-identical to the historical flat model.
func DefaultCosts() CostModel {
	m := CostModel{
		Migration:         ConstCost(simtime.Micros(3)),
		ScheduleBase:      ConstCost(simtime.Micros(1)),
		SchedulePerEntity: ConstCost(100 * simtime.Nanosecond),
		GuestSwitch:       ConstCost(simtime.Microsecond),
		Tick:              ConstCost(simtime.Micros(20)),
	}
	m.SetHypercall(ConstCost(simtime.Micros(10))) // §4.5: 10µs per hypercall
	m.SetContextSwitch(ConstCost(simtime.Micros(2)))
	return m
}

// CalibratedCosts returns a distribution-valued model in the spirit of
// Mhatre & Chandran's measurements: hypervisor costs are heavy-tailed and
// cause-dependent. Means sit near the paper's §4 constants so constant-vs-
// calibrated ablations isolate the effect of noise and cause-dependence
// rather than a wholesale cost rescale; tails and per-cause splits follow
// the qualitative shape of the measured traces (log-normal hypercall paths,
// near-deterministic warm switches, Pareto-tailed cold switches and
// migrations, per-MiB dirty-state copy cost).
func CalibratedCosts() CostModel {
	return CostModel{
		HypercallIncBW:    DistCost(dist.LogNormalFromMoments(simtime.Micros(10), 0.45)),
		HypercallDecBW:    DistCost(dist.LogNormalFromMoments(simtime.Micros(7), 0.35)),
		HypercallIncDecBW: DistCost(dist.LogNormalFromMoments(simtime.Micros(14), 0.5)),
		CtxSwitchWarm: DistCost(dist.Normal{
			MeanD: simtime.Microsecond, Stddev: 200 * simtime.Nanosecond, Min: 200 * simtime.Nanosecond}),
		CtxSwitchCold: DistCost(dist.BoundedPareto{
			Lo: simtime.Micros(2), Hi: simtime.Micros(50), Alpha: 2.2}),
		Migration: DistCost(dist.BoundedPareto{
			Lo: simtime.Micros(3), Hi: simtime.Micros(80), Alpha: 1.8}),
		MigrationPerMiB: ConstCost(120 * simtime.Nanosecond),
		ScheduleBase: DistCost(dist.Normal{
			MeanD: simtime.Microsecond, Stddev: 250 * simtime.Nanosecond, Min: 100 * simtime.Nanosecond}),
		SchedulePerEntity: ConstCost(100 * simtime.Nanosecond),
		GuestSwitch: DistCost(dist.Normal{
			MeanD: simtime.Microsecond, Stddev: 300 * simtime.Nanosecond, Min: 100 * simtime.Nanosecond}),
		Tick: DistCost(dist.Normal{
			MeanD: simtime.Micros(20), Stddev: simtime.Micros(4), Min: simtime.Micros(2)}),
	}
}

// DrawCost samples a cost term from the host's dedicated cost RNG stream.
// The stream is derived from (simulator seed, host handler ID) — never from
// the main RNG — is cloned by Fork, and is owned per-host in sharded runs,
// so noisy costs preserve fork bit-identity and PDES group-invariance.
func (h *Host) DrawCost(c Cost) simtime.Duration { return c.Sample(h.costRNG) }

// ScheduleCost samples the cost of one schedule() invocation that examined
// work entities: one base draw plus work × one per-entity draw. An
// all-constant pair, the default, is plain arithmetic inline; any
// distribution takes the sampled path, which keeps the draw order.
func (h *Host) ScheduleCost(work int) simtime.Duration {
	if c := &h.Costs; c.ScheduleBase.d == nil && c.SchedulePerEntity.d == nil {
		return c.ScheduleBase.c + simtime.Duration(max(work, 0))*c.SchedulePerEntity.c
	}
	return h.sampleScheduleCost(work)
}

func (h *Host) sampleScheduleCost(work int) simtime.Duration {
	c := h.Costs.ScheduleBase.Sample(h.costRNG)
	if work > 0 {
		c += simtime.Duration(work) * h.Costs.SchedulePerEntity.Sample(h.costRNG)
	}
	return c
}

// ctxSwitchCost samples the context-switch term for PCPU p switching to nv:
// warm when nv last ran here (or the PCPU goes idle), cold otherwise. A
// constant term returns without a call.
func (h *Host) ctxSwitchCost(p *PCPU, nv *VCPU) simtime.Duration {
	c := &h.Costs.CtxSwitchWarm
	if nv != nil && h.hot[nv.ID].LastPCPU != int32(p.ID) {
		c = &h.Costs.CtxSwitchCold
	}
	if c.d == nil {
		return c.c
	}
	return c.d.Sample(h.costRNG)
}

// migrationCost samples the cross-PCPU migration term for nv: the fixed
// Migration draw plus WorkingSetMiB × one per-MiB draw.
func (h *Host) migrationCost(nv *VCPU) simtime.Duration {
	c := h.Costs.Migration.Sample(h.costRNG)
	if wss := nv.VM.WorkingSetMiB; wss > 0 {
		c += simtime.Duration(wss) * h.Costs.MigrationPerMiB.Sample(h.costRNG)
	}
	return c
}
