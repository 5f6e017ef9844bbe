// Package dpwrap implements the RTVirt host-level VM scheduler: DP-WRAP
// with cross-layer deadline sharing (§3.3 of the paper).
//
// DP-WRAP schedules by deadline partitioning: time is cut into global
// slices at the union of all tasks' deadlines, and within each slice every
// VCPU receives a share proportional to its bandwidth, laid onto the PCPUs
// with McNaughton's wrap-around algorithm (at most m−1 VCPUs are split,
// bounding migrations per slice to m−1). DP-WRAP is optimal: any VCPU set
// whose total bandwidth does not exceed the number of PCPUs is schedulable.
//
// RTVirt's cross-layer twist is where the deadlines come from: each guest
// publishes, per VCPU, the next earliest deadline of its RTAs through
// shared memory, plus the worst-case activation period of its sporadic
// RTAs. The host takes the minimum across all real-time VCPUs as the next
// global deadline, clamped below by the configured minimum global slice.
//
// Within a slice, execution is quota-based and work-conserving: each PCPU
// serves its wrap-layout entries greedily in layout order. When every VCPU
// is busy this reproduces the McNaughton schedule exactly — optimality and
// the migration bound hold — and when a VCPU idles (sporadic gaps, early
// completions, releases that a clamped slice has overrun), later entries
// and background VCPUs reclaim the time instead of stranding it.
package dpwrap

import (
	"cmp"
	"fmt"
	"slices"

	"rtvirt/internal/eventq"
	"rtvirt/internal/hv"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/trace"
)

// The DP-WRAP prototype's fixed bounds (§4.1).
const (
	// MaxSlice caps a global slice when published deadlines are far away,
	// keeping background VMs responsive.
	MaxSlice = 100 * simtime.Millisecond
	// TaxFloor is the minimum fraction of its reservation a VCPU taxed by
	// IdleTax keeps, bounding how hard an idle claim is squeezed.
	TaxFloor = 0.25
)

// Config tunes the scheduler.
type Config struct {
	// MinSlice is the smallest allowed global slice, bounding scheduling
	// overhead (250µs in the paper's prototype).
	MinSlice simtime.Duration
	// RTCapacity is the fraction of total PCPU bandwidth admittable for
	// real-time reservations; the remainder is kept for background VMs
	// ("a certain amount of bandwidth can be reserved for such processes
	// to avoid starvation", §3.4). 1.0 admits everything.
	RTCapacity float64
	// IdleTax enables the §6 usage-taxing extension: VCPUs that
	// persistently leave their reservation idle have their slice
	// allocation scaled down toward their observed usage, and admission
	// counts them at the taxed bandwidth — reclaiming bandwidth from
	// over-claiming VMs.
	IdleTax bool
	// TaxWindow is the usage observation window (default 100ms).
	TaxWindow simtime.Duration
	// NonWorkConserving disables leftover sharing: RT VCPUs stop at their
	// slice quota and idle time stays idle (pure DP-WRAP, the ablation of
	// §3.4's proportional leftover distribution).
	NonWorkConserving bool
}

// DefaultConfig mirrors the prototype constants from §4.1.
func DefaultConfig() Config {
	return Config{
		MinSlice:   simtime.Micros(250),
		RTCapacity: 1.0,
	}
}

// entry is one VCPU's allocation quota on one PCPU within the current
// global slice, in McNaughton wrap order. Entries are plain values held in
// each pcpuState's flat slice — the per-decision scan walks one contiguous
// array, and a slice rebuild truncates and re-appends into the same
// backing array, so entries are never allocated one by one.
type entry struct {
	v         *hv.VCPU
	remaining simtime.Duration // quota not yet consumed
	pcpu      int
}

type pcpuState struct {
	entries []entry
	// idx maps a VCPU ID to its entry's position in entries for the
	// current slice, -1 otherwise (a VCPU holds at most one entry per
	// PCPU: wrap placement is contiguous, and wrapPlace visits each PCPU
	// once). Sized to the host's ID space, it turns the per-decision entry
	// searches (wake preemption, rescue scans, charge attribution) from
	// linear sweeps into O(1) flat-array lookups. rebuild resets only the
	// slots of the outgoing layout's entries, so a boundary costs the
	// layout's size, not the ID space's.
	idx []int32
	// firstLive is the index of the first entry with quota left. Entries
	// exhaust monotonically within a slice in wrap order, so Schedule can
	// skip the drained prefix wholesale — it still charges the modeled
	// scan cost for them, keeping Decision.Work identical to a full sweep.
	firstLive int
	// lastEntry/lastAt attribute elapsed run time to the entry (by index,
	// -1 = none) that was granted at the previous Schedule decision on
	// this PCPU. Entry positions only change inside rebuild, which settles
	// the charge first, so a held index never goes stale.
	lastEntry int
	lastAt    simtime.Time
	bgCursor  int
}

// Scheduler event kinds (all host-wide; Owner unused).
const (
	// evBoundary fires at the global slice end: replan and re-dispatch.
	evBoundary uint16 = iota
	// evTaxWindow fires every TaxWindow: settle idle-tax factors.
	evTaxWindow
	// evReplan is the same-instant deferred replan after a slot write.
	evReplan
	// evRescue is the same-instant deferred kick for stranded split quota.
	evRescue
)

// Scheduler is the DP-WRAP host scheduler.
type Scheduler struct {
	cfg Config
	h   *hv.Host
	id  int32 // typed-event handler ID

	vcpus []*hv.VCPU // all VCPUs in admission order
	// rtv is the filter of vcpus that rebuild lays out: the RT VCPUs with
	// a positive budget, in admission order. Membership changes only
	// through admission, removal and reservation updates (refreshRT), so a
	// slice boundary walks the real-time VCPUs alone.
	rtv  []*hv.VCPU
	pcpu []*pcpuState

	sliceStart, sliceEnd simtime.Time
	boundaryEv           eventq.Handle
	started              bool
	replanPending        bool
	rescuePending        bool

	// carry holds each VCPU's fractional allocation remainder (in units
	// of 1/Period nanoseconds), indexed by dense VCPU ID. Floor division
	// with this carry delivers exactly Budget per Period across
	// boundary-aligned spans, with no cumulative drift and no
	// over-allocation within a slice.
	carry []int64

	// Idle-tax state (§6 extension), both indexed by VCPU ID: observed
	// usage in the current window and the smoothed per-VCPU tax factor in
	// (TaxFloor, 1]; factor 0 is the unset sentinel and reads as 1.
	taxFactor []float64
	windowUse []simtime.Duration
	taxEv     eventq.Handle

	// Boundaries counts global slices; SlicesTotal accumulates their
	// lengths (for diagnostics and tests).
	Boundaries  uint64
	SlicesTotal simtime.Duration

	// rebuild's scratch, kept across slices so a steady-state rebuild
	// allocates nothing: the RT VCPUs with their sort keys, and each
	// PCPU's pinned prefix length. Neither carries state from one
	// rebuild to the next (rt's pointers are cleared once the layout is
	// built), so a fork starts with none.
	rt         []rtVCPU
	pinnedFill []simtime.Duration
}

// rtVCPU is one RT VCPU in rebuild's wrap order with its effective next
// deadline, computed once per rebuild rather than once per comparison.
type rtVCPU struct {
	v   *hv.VCPU
	key simtime.Time
}

// cmpRT orders RT VCPUs by (key, ID): a total order, so an unstable sort
// yields the same permutation a stable one would.
func cmpRT(a, b rtVCPU) int {
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.v.ID, b.v.ID)
}

// slot grows an ID-indexed slice to cover id and returns the element.
func grow[T any](s *[]T, id int) *T {
	for len(*s) <= id {
		*s = append(*s, *new(T))
	}
	return &(*s)[id]
}

// New creates a DP-WRAP scheduler.
func New(cfg Config) *Scheduler {
	if cfg.MinSlice <= 0 {
		cfg.MinSlice = simtime.Micros(250)
	}
	if cfg.RTCapacity <= 0 {
		cfg.RTCapacity = 1.0
	}
	if cfg.TaxWindow <= 0 {
		cfg.TaxWindow = simtime.Millis(100)
	}
	return &Scheduler{cfg: cfg}
}

// Name implements hv.HostScheduler.
func (s *Scheduler) Name() string { return "rtvirt-dpwrap" }

// Attach implements hv.HostScheduler.
func (s *Scheduler) Attach(h *hv.Host) {
	s.h = h
	s.id = h.Sim.RegisterHandler(s)
	for range h.PCPUs() {
		s.pcpu = append(s.pcpu, &pcpuState{lastEntry: -1})
	}
}

// HandleSimEvent implements sim.Handler.
func (s *Scheduler) HandleSimEvent(now simtime.Time, ev sim.Payload) {
	switch ev.Kind {
	case evBoundary:
		s.boundaryEv = eventq.Handle{}
		s.replanKick(now)
	case evTaxWindow:
		s.settleTax(now)
		s.armTaxWindow(now)
	case evReplan:
		s.replanPending = false
		s.replanKick(now)
	case evRescue:
		s.rescuePending = false
		s.rescueKick(now)
	default:
		panic(fmt.Sprintf("dpwrap: unknown event kind %d", ev.Kind))
	}
}

// Start implements hv.HostScheduler.
func (s *Scheduler) Start(now simtime.Time) {
	s.started = true
	if s.cfg.IdleTax {
		s.armTaxWindow(now)
	}
	s.rebuild(now)
}

// armTaxWindow schedules the next usage-accounting boundary.
func (s *Scheduler) armTaxWindow(now simtime.Time) {
	s.taxEv = s.h.Sim.PostAt(now.Add(s.cfg.TaxWindow), sim.Payload{Handler: s.id, Kind: evTaxWindow})
}

// settleTax recomputes every RT VCPU's tax factor from its observed usage
// over the window: factor = max(floor, usage/entitlement), smoothed 50/50
// with the previous factor so a briefly idle VM is not squeezed instantly.
func (s *Scheduler) settleTax(now simtime.Time) {
	for _, v := range s.rtv {
		prev := *grow(&s.taxFactor, v.ID)
		if prev == 0 {
			prev = 1.0
		}
		// Usage is judged against the *taxed* entitlement: a VM that fully
		// consumes its (possibly squeezed) share reads as ratio 1 and its
		// factor climbs back — otherwise the tax would throttle the very
		// usage signal that could lift it.
		entitled := float64(s.cfg.TaxWindow) * v.Res.Bandwidth() * prev
		used := float64(*grow(&s.windowUse, v.ID))
		s.windowUse[v.ID] = 0
		ratio := 1.0
		if entitled > 0 {
			ratio = used / entitled
		}
		if ratio >= 0.9 {
			// Saturated: grow multiplicatively so recovery is fast.
			next := prev * 1.5
			if next > 1 {
				next = 1
			}
			s.taxFactor[v.ID] = next
			continue
		}
		f := ratio * prev
		if f < TaxFloor {
			f = TaxFloor
		}
		s.taxFactor[v.ID] = (prev + f) / 2
	}
}

// factorOf reports the VCPU's current tax factor (1 without IdleTax).
func (s *Scheduler) factorOf(v *hv.VCPU) float64 {
	if !s.cfg.IdleTax {
		return 1.0
	}
	if v.ID < len(s.taxFactor) && s.taxFactor[v.ID] != 0 {
		return s.taxFactor[v.ID]
	}
	return 1.0
}

// TaxFactor exposes the current factor for diagnostics and tests.
func (s *Scheduler) TaxFactor(v *hv.VCPU) float64 { return s.factorOf(v) }

// rtBandwidth sums admitted real-time bandwidth with subst substituted for
// VCPU except; if except is not yet admitted, subst is counted on top.
func (s *Scheduler) rtBandwidth(except *hv.VCPU, subst hv.Reservation) float64 {
	sum := subst.Bandwidth()
	for _, v := range s.vcpus {
		if v != except && v.RT {
			// With the idle tax, persistently idle reservations count at
			// their taxed bandwidth, making room for new admissions (§6).
			sum += v.Res.Bandwidth() * s.factorOf(v)
		}
	}
	return sum
}

// capacity is the admittable RT bandwidth in CPUs.
func (s *Scheduler) capacity() float64 {
	return s.cfg.RTCapacity * float64(s.h.NumPCPUs())
}

// AdmitVCPU implements hv.HostScheduler.
func (s *Scheduler) AdmitVCPU(v *hv.VCPU) error {
	if v.RT && !v.Res.Valid() {
		return fmt.Errorf("dpwrap: %w: invalid reservation %v", hv.ErrAdmission, v.Res)
	}
	if v.RT && s.rtBandwidth(v, v.Res) > s.capacity()+1e-9 {
		return fmt.Errorf("dpwrap: %w: bandwidth %0.3f exceeds capacity %0.3f",
			hv.ErrAdmission, s.rtBandwidth(v, v.Res), s.capacity())
	}
	s.vcpus = append(s.vcpus, v)
	s.refreshRT()
	*grow(&s.carry, v.ID) = 0
	return nil
}

// refreshRT recomputes rtv from vcpus, reusing its storage. Stale pointers
// past the new length are cleared so a removed VCPU is not kept alive.
func (s *Scheduler) refreshRT() {
	old := len(s.rtv)
	s.rtv = s.rtv[:0]
	for _, v := range s.vcpus {
		if v.RT && v.Res.Budget > 0 {
			s.rtv = append(s.rtv, v)
		}
	}
	if old > len(s.rtv) {
		clear(s.rtv[len(s.rtv):old])
	}
}

// RemoveVCPU implements hv.HostScheduler.
func (s *Scheduler) RemoveVCPU(v *hv.VCPU, now simtime.Time) {
	for i, x := range s.vcpus {
		if x == v {
			s.vcpus = append(s.vcpus[:i], s.vcpus[i+1:]...)
			break
		}
	}
	s.refreshRT()
	if v.ID < len(s.carry) {
		s.carry[v.ID] = 0
	}
	if v.ID < len(s.taxFactor) {
		s.taxFactor[v.ID] = 0
	}
	if v.ID < len(s.windowUse) {
		s.windowUse[v.ID] = 0
	}
	if s.started {
		s.replanKick(now)
	}
}

// UpdateVCPU implements hv.HostScheduler.
func (s *Scheduler) UpdateVCPU(v *hv.VCPU, res hv.Reservation, now simtime.Time) error {
	if !res.Valid() {
		s.emitVerdict(v, res, now, false)
		return fmt.Errorf("dpwrap: %w: invalid reservation %v", hv.ErrAdmission, res)
	}
	if v.RT && res.Bandwidth() > v.Res.Bandwidth() &&
		s.rtBandwidth(v, res) > s.capacity()+1e-9 {
		s.emitVerdict(v, res, now, false)
		return fmt.Errorf("dpwrap: %w: bandwidth %0.3f exceeds capacity %0.3f",
			hv.ErrAdmission, s.rtBandwidth(v, res), s.capacity())
	}
	s.emitVerdict(v, res, now, true)
	v.Res = res
	s.refreshRT()
	if s.started {
		s.replanKick(now)
	}
	return nil
}

// emitVerdict reports the admission decision for a reservation change.
func (s *Scheduler) emitVerdict(v *hv.VCPU, res hv.Reservation, now simtime.Time, ok bool) {
	if !s.h.Tracing() {
		return
	}
	kind := trace.Reject
	if ok {
		kind = trace.Admit
	}
	s.h.Emit(trace.Event{At: now, Kind: kind, PCPU: -1,
		VM: v.VM.Name, VCPU: v.Index, Arg: int64(res.Budget)})
}

// HandleHypercall implements hv.CrossLayer: the sched_rtvirt() interface.
func (s *Scheduler) HandleHypercall(hc hv.Hypercall, now simtime.Time) error {
	switch hc.Flag {
	case hv.IncBW, hv.DecBW:
		return s.UpdateVCPU(hc.VCPU, hc.Res, now)
	case hv.IncDecBW:
		// Atomic: apply the decrease first so the increase is checked
		// against the post-decrease capacity; roll back if rejected.
		oldDec := hc.Dec.Res
		if err := s.UpdateVCPU(hc.Dec, hc.DecRes, now); err != nil {
			return err
		}
		if err := s.UpdateVCPU(hc.VCPU, hc.Res, now); err != nil {
			if rbErr := s.UpdateVCPU(hc.Dec, oldDec, now); rbErr != nil {
				panic("dpwrap: rollback of INC_DEC_BW failed")
			}
			return err
		}
		return nil
	default:
		return fmt.Errorf("dpwrap: unknown hypercall flag %v", hc.Flag)
	}
}

// replanKick rebuilds the plan and re-dispatches every PCPU. Never call it
// from inside Schedule (the kernel dispatch loop is not re-entrant).
func (s *Scheduler) replanKick(now simtime.Time) {
	s.rebuild(now)
	for _, p := range s.h.PCPUs() {
		s.h.Kick(p, now)
	}
}

// rebuild ends the current global slice and builds the next one: global
// deadline from the shared slots, proportional partitioning, wrap-around
// layout. It does not kick the PCPUs.
func (s *Scheduler) rebuild(now simtime.Time) {
	// Charge outstanding run time to the old entries before truncating;
	// the entries' backing arrays are reused by the new layout, and their
	// idx slots are the only ones not -1.
	for _, ps := range s.pcpu {
		s.chargeRun(ps, now)
		for i := range ps.entries {
			ps.idx[ps.entries[i].v.ID] = -1
		}
		ps.entries = ps.entries[:0]
		ps.lastEntry = -1
	}
	s.h.Sim.Cancel(s.boundaryEv)
	s.boundaryEv = eventq.Handle{}

	// One pass over the RT VCPUs yields each one's effective next deadline
	// — its published slot, or the sporadic worst-case floor if sooner —
	// and their minimum, the next global deadline (§3.3). Sorting by it
	// (earliest first) puts urgent VCPUs early in the wrap layout, so a
	// latency-sensitive sporadic VCPU (e.g. memcached) is served at the
	// front of each slice. Ties break on ID for determinism.
	deadline := simtime.Never
	rt := s.rt[:0]
	for _, v := range s.rtv {
		d := simtime.Never
		if slot := v.DeadlineSlot; slot > now {
			d = slot
		}
		if f := v.SporadicFloor; f > 0 {
			if wc := now.Add(f); wc < d {
				d = wc
			}
		}
		rt = append(rt, rtVCPU{v: v, key: d})
		deadline = min(deadline, d)
	}
	slices.SortFunc(rt, cmpRT)
	s.rt = rt
	deadline = min(max(deadline, now.Add(s.cfg.MinSlice)), now.Add(MaxSlice))

	slice := deadline.Sub(now)
	s.sliceStart, s.sliceEnd = now, deadline
	s.Boundaries++
	s.SlicesTotal += slice

	// Model the O(log n) + O(n) boundary work (§4.5) on PCPU 0.
	n := len(rt)
	cost := s.h.ScheduleCost(n)
	s.h.Overhead.ScheduleCalls++
	s.h.ChargeScheduleWork(s.h.PCPUs()[0], cost)

	// McNaughton wrap: lay each VCPU's slice share onto PCPUs in sequence,
	// splitting at PCPU boundaries. A split VCPU's pieces can never run
	// concurrently: the kernel dispatches a VCPU on at most one PCPU and
	// Schedule skips entries whose owner is busy elsewhere.
	m := s.h.NumPCPUs()
	// Pinned (NoMigrate) VCPUs are placed first, each whole on one PCPU,
	// so they are excluded from the m−1 split candidates (§6).
	if len(s.pinnedFill) != m {
		s.pinnedFill = make([]simtime.Duration, m)
	}
	pinnedFill := s.pinnedFill
	clear(pinnedFill)
	for _, r := range rt {
		v := r.v
		if !v.NoMigrate {
			continue
		}
		alloc := s.allocFor(v, slice)
		if alloc <= 0 {
			continue
		}
		placed := false
		for pi := 0; pi < m; pi++ {
			if pinnedFill[pi]+alloc <= slice {
				ps := s.pcpu[pi]
				ps.entries = append(ps.entries, entry{v: v, remaining: alloc, pcpu: pi})
				pinnedFill[pi] += alloc
				placed = true
				break
			}
		}
		if !placed {
			// No whole-PCPU room this slice: fall back to a split so the
			// reservation is still honoured; the pin is best-effort.
			s.wrapPlace(v, alloc, slice, pinnedFill, &m)
		}
	}
	pcpuIdx, offset := 0, simtime.Duration(0)
	for pcpuIdx < m && pinnedFill[pcpuIdx] > 0 {
		// Resume wrapping after each PCPU's pinned prefix.
		offset = pinnedFill[pcpuIdx]
		if offset < slice {
			break
		}
		pcpuIdx++
		offset = 0
	}
	for _, r := range rt {
		v := r.v
		if v.NoMigrate {
			continue
		}
		// Exact fluid share via floor division with a running remainder:
		// alloc = ⌊(slice×Budget + carry) / Period⌋. Total allocation can
		// never exceed the slice capacity, and over any boundary-aligned
		// span of one Period the VCPU receives exactly Budget.
		alloc := s.allocFor(v, slice)
		if alloc <= 0 {
			continue
		}
		for alloc > 0 && pcpuIdx < m {
			room := slice - offset
			take := simtime.MinDur(alloc, room)
			ps := s.pcpu[pcpuIdx]
			ps.entries = append(ps.entries, entry{v: v, remaining: take, pcpu: pcpuIdx})
			alloc -= take
			offset += take
			if offset >= slice {
				pcpuIdx++
				if pcpuIdx < m {
					offset = pinnedFill[pcpuIdx]
				} else {
					offset = 0
				}
			}
		}
		// Admission guarantees total ≤ m×slice up to integer rounding;
		// losing a rounding remainder is harmless.
		if alloc > simtime.Microsecond {
			panic(fmt.Sprintf("dpwrap: wrap overflow by %v (admission broken?)", alloc))
		}
	}
	// Drop the VCPU pointers so a removed VCPU is not kept alive by the
	// scratch until a later rebuild overwrites its slot.
	clear(rt)

	// Index the new layout. Positions are final only here: wrapPlace may
	// have prepended continuation fragments. The ID-indexed slice is reused:
	// the outgoing entries' slots were reset above, and it only grows when
	// the host has handed out new IDs.
	ids := s.h.NumIDs()
	for _, ps := range s.pcpu {
		for len(ps.idx) < ids {
			ps.idx = append(ps.idx, -1)
		}
		for i := range ps.entries {
			ps.idx[ps.entries[i].v.ID] = int32(i)
		}
		ps.firstLive = 0
	}

	s.boundaryEv = s.h.Sim.PostAt(deadline, sim.Payload{Handler: s.id, Kind: evBoundary})
}

// allocFor computes v's exact fluid share of a slice (floor + carry),
// scaled by the idle-tax factor when enabled.
func (s *Scheduler) allocFor(v *hv.VCPU, slice simtime.Duration) simtime.Duration {
	budget := int64(v.Res.Budget)
	if f := s.factorOf(v); f < 1 {
		budget = int64(f * float64(budget))
	}
	num := int64(slice)*budget + *grow(&s.carry, v.ID)
	alloc := num / int64(v.Res.Period)
	s.carry[v.ID] = num % int64(v.Res.Period)
	// allocFor runs once per RT VCPU per rebuild, so this is the single
	// place every slice-quota grant passes through.
	if alloc > 0 && s.h.Tracing() {
		s.h.Emit(trace.Event{At: s.sliceStart, Kind: trace.Replenish, PCPU: -1,
			VM: v.VM.Name, VCPU: v.Index, Arg: alloc})
	}
	return simtime.Duration(alloc)
}

// wrapPlace lays alloc for a pinned VCPU that no longer fits whole,
// splitting across the least-filled PCPUs. Like McNaughton's wrap, the
// continuation fragments go to the FRONT of their PCPU's order: the first
// fragment runs at the end of its PCPU's timeline, the continuation at the
// start of the next one, so the two never want the VCPU at the same
// instant (a VCPU can only execute on one PCPU at a time).
func (s *Scheduler) wrapPlace(v *hv.VCPU, alloc, slice simtime.Duration, fill []simtime.Duration, m *int) {
	first := true
	for pi := 0; pi < *m && alloc > 0; pi++ {
		room := slice - fill[pi]
		if room <= 0 {
			continue
		}
		take := simtime.MinDur(alloc, room)
		ps := s.pcpu[pi]
		if first {
			ps.entries = append(ps.entries, entry{v: v, remaining: take, pcpu: pi})
			first = false
		} else {
			// Prepend by shifting in place so the backing array is reused.
			ps.entries = append(ps.entries, entry{})
			copy(ps.entries[1:], ps.entries)
			ps.entries[0] = entry{v: v, remaining: take, pcpu: pi}
		}
		fill[pi] += take
		alloc -= take
	}
}

// chargeRun attributes elapsed wall time on a PCPU to the entry that was
// running there.
func (s *Scheduler) chargeRun(ps *pcpuState, now simtime.Time) {
	if ps.lastEntry < 0 {
		return
	}
	e := &ps.entries[ps.lastEntry]
	elapsed := now.Sub(ps.lastAt)
	if elapsed < 0 {
		panic("dpwrap: time went backwards in chargeRun")
	}
	if elapsed < e.remaining {
		e.remaining -= elapsed
	} else {
		if e.remaining > 0 && s.h.Tracing() {
			s.emitDeplete(e, now, elapsed)
		}
		e.remaining = 0
	}
	if s.cfg.IdleTax {
		*grow(&s.windowUse, e.v.ID) += elapsed
	}
	ps.lastEntry = -1
}

// emitDeplete reports that entry e's quota ran out. Arg carries the
// overdraw: time charged beyond the entry's quota. Schedule grants at
// most the remaining quota, so any non-zero overdraw is an accounting bug
// (check.BudgetOracle).
func (s *Scheduler) emitDeplete(e *entry, now simtime.Time, elapsed simtime.Duration) {
	s.h.Emit(trace.Event{At: now, Kind: trace.Deplete, PCPU: e.pcpu,
		VM: e.v.VM.Name, VCPU: e.v.Index, Arg: int64(elapsed - e.remaining)})
}

// SliceBounds reports the current global slice [start, end). Every quota
// Replenish event is emitted with At == start while these bounds are
// current, so the invariant oracles can bound each grant by
// bandwidth × (end − start). Read-only; used by internal/check.
func (s *Scheduler) SliceBounds() (start, end simtime.Time) { return s.sliceStart, s.sliceEnd }

// AdmittedBandwidth sums the admitted real-time bandwidth exactly as the
// admission test counts it (taxed when IdleTax is enabled).
func (s *Scheduler) AdmittedBandwidth() float64 { return s.rtBandwidth(nil, hv.Reservation{}) }

// Capacity returns the admittable RT bandwidth in CPUs.
func (s *Scheduler) Capacity() float64 { return s.capacity() }

// SlotUpdated implements hv.SlotWatcher: when a guest publishes a deadline
// earlier than the current global slice end (a freshly started periodic
// task, or a sporadic floor shrinking), the slice is cut short so the new
// deadline is honoured. Replanning is deferred to a same-instant event
// because slot writes can happen inside the kernel dispatch path.
func (s *Scheduler) SlotUpdated(v *hv.VCPU, now simtime.Time) {
	if !s.started || s.replanPending {
		return
	}
	if !v.RT || v.Res.Budget <= 0 {
		return
	}
	cand := simtime.Never
	if slot := v.DeadlineSlot; slot > now {
		cand = slot
	}
	if f := v.SporadicFloor; f > 0 {
		if wc := now.Add(f); wc < cand {
			cand = wc
		}
	}
	if cand == simtime.Never || cand >= s.sliceEnd {
		return
	}
	if now.Add(s.cfg.MinSlice) >= s.sliceEnd {
		return // cutting now cannot help
	}
	s.replanPending = true
	s.h.Sim.PostAt(now, sim.Payload{Handler: s.id, Kind: evReplan})
}

// VCPUWake implements hv.HostScheduler: a woken real-time VCPU preempts
// lower-priority work on a PCPU where it holds unused quota; a background
// VCPU grabs an idle PCPU.
func (s *Scheduler) VCPUWake(v *hv.VCPU, now simtime.Time) {
	if !s.started {
		return
	}
	if v.RT && v.Res.Budget > 0 {
		for pi, ps := range s.pcpu {
			idx := s.entryIndex(ps, v)
			if idx < 0 || ps.entries[idx].remaining <= 0 {
				continue
			}
			p := s.h.PCPUs()[pi]
			if s.shouldPreempt(ps, p, idx) {
				s.h.Kick(p, now)
				return
			}
		}
		return
	}
	// Background VCPU: take any idle PCPU.
	for _, p := range s.h.PCPUs() {
		if p.Current() == nil {
			s.h.Kick(p, now)
			return
		}
	}
}

// VCPUIdle implements hv.HostScheduler. Charging happens at the next
// Schedule call on the PCPU, which the kernel performs immediately.
func (s *Scheduler) VCPUIdle(v *hv.VCPU, now simtime.Time) {}

// entryIndex reports the position of v's entry on a PCPU, or -1.
func (s *Scheduler) entryIndex(ps *pcpuState, v *hv.VCPU) int {
	if v.ID < len(ps.idx) {
		return int(ps.idx[v.ID])
	}
	return -1
}

// shouldPreempt reports whether the entry at idx outranks what PCPU p is
// running now: an idle PCPU, a background VCPU, or a later entry yields.
func (s *Scheduler) shouldPreempt(ps *pcpuState, p *hv.PCPU, idx int) bool {
	cur := p.Current()
	if cur == nil {
		return true
	}
	curIdx := s.entryIndex(ps, cur)
	if curIdx < 0 {
		return true // background or foreign VCPU
	}
	return curIdx > idx
}

// available reports whether an entry's VCPU could run on p right now. It
// reads the host's hot array directly: the runnable flag and current-PCPU
// index sit in one contiguous record per VCPU, so the per-entry check in
// the Schedule scan touches no cold VCPU struct.
func (s *Scheduler) available(e *entry, p *hv.PCPU) bool {
	hs := &s.h.Hot()[e.v.ID]
	return hs.Runnable && e.remaining > 0 && (hs.PCPU < 0 || hs.PCPU == int32(p.ID))
}

// Schedule implements hv.HostScheduler: serve this PCPU's quota entries
// greedily in wrap order; fall back to background fill, then idle.
func (s *Scheduler) Schedule(p *hv.PCPU, now simtime.Time) hv.Decision {
	ps := s.pcpu[p.ID]
	s.chargeRun(ps, now)
	if now >= s.sliceEnd {
		// Unreachable in normal operation: the boundary event fires before
		// any kernel event armed later within the slice. Kept as a safety
		// net (rebuild only; kicking would re-enter the dispatcher).
		s.rebuild(now)
	}
	s.rescue(p, now)
	// Entries exhaust monotonically in wrap order within a slice; skip the
	// drained prefix but charge the modeled sweep for it, so Work is
	// exactly what a full scan reports.
	for ps.firstLive < len(ps.entries) && ps.entries[ps.firstLive].remaining <= 0 {
		ps.firstLive++
	}
	work := 1 + ps.firstLive
	horizon := s.sliceEnd.Sub(now)
	for i := ps.firstLive; i < len(ps.entries); i++ {
		e := &ps.entries[i]
		work++
		if !s.available(e, p) {
			continue
		}
		run := simtime.MinDur(e.remaining, horizon)
		if run <= 0 {
			continue
		}
		ps.lastEntry, ps.lastAt = i, now
		return hv.Decision{VCPU: e.v, RunFor: run, Work: work}
	}
	if bg := s.pickBackground(p, &work); bg != nil {
		ps.lastEntry = -1
		ps.lastAt = now
		return hv.Decision{VCPU: bg, RunFor: horizon, Work: work}
	}
	ps.lastEntry = -1
	ps.lastAt = now
	return hv.Decision{VCPU: nil, RunFor: horizon, Work: work}
}

// rescue arranges a same-instant kick when another PCPU is idle (or on
// background work) while holding unused quota for the VCPU this PCPU is
// about to release. Without it a split VCPU finishing its quota here would
// leave its quota on the neighbour stranded: the neighbour scheduled while
// the owner was busy elsewhere, and no wake fires because the owner never
// blocked.
func (s *Scheduler) rescue(p *hv.PCPU, now simtime.Time) {
	if s.rescuePending {
		return
	}
	prev := p.Current()
	if prev == nil || !prev.RT || prev.Res.Budget <= 0 {
		return
	}
	for pi, ps := range s.pcpu {
		if pi == p.ID {
			continue
		}
		idx := s.entryIndex(ps, prev)
		if idx < 0 || ps.entries[idx].remaining <= 0 {
			continue
		}
		other := s.h.PCPUs()[pi]
		cur := other.Current()
		curIdx := -1
		if cur != nil {
			curIdx = s.entryIndex(ps, cur)
		}
		if cur == nil || curIdx < 0 || curIdx > idx {
			s.rescuePending = true
			s.h.Sim.PostAt(now, sim.Payload{Handler: s.id, Kind: evRescue})
			return
		}
	}
}

// rescueKick re-dispatches PCPUs where a claimable entry outranks what is
// running (idle, background work, or a later wrap-order entry).
func (s *Scheduler) rescueKick(now simtime.Time) {
	if now >= s.sliceEnd {
		return
	}
	for pi, ps := range s.pcpu {
		p := s.h.PCPUs()[pi]
		cur := p.Current()
		curIdx := -1
		if cur != nil {
			curIdx = s.entryIndex(ps, cur)
			if curIdx < 0 {
				curIdx = len(ps.entries) // background ranks below every entry
			}
		} else {
			curIdx = len(ps.entries)
		}
		for i := range ps.entries {
			if i >= curIdx {
				break
			}
			e := &ps.entries[i]
			if s.available(e, p) && e.v != cur {
				s.h.Kick(p, now)
				break
			}
		}
	}
}

// pickBackground selects the next runnable VCPU to soak leftover time,
// round-robin. Both non-RT VCPUs and RT VCPUs that have exhausted their
// slice quota are eligible: §3.4 — "the remaining bandwidth of the system
// is allocated among the VMs proportionally". Time granted here is not
// charged against any quota.
func (s *Scheduler) pickBackground(p *hv.PCPU, work *int) *hv.VCPU {
	n := len(s.vcpus)
	if n == 0 {
		return nil
	}
	ps := s.pcpu[p.ID]
	hot := s.h.Hot()
	pid := int32(p.ID)
	// Removals can leave the cursor at or past n: reduce it once, then
	// wrap each step with a compare.
	j := ps.bgCursor % n
	for i := 0; i < n; i++ {
		v := s.vcpus[j]
		if j++; j == n {
			j = 0
		}
		*work++
		if s.cfg.NonWorkConserving && v.RT && v.Res.Budget > 0 {
			continue // pure DP-WRAP: no leftover for reserved VCPUs
		}
		if hs := &hot[v.ID]; hs.Runnable && (hs.PCPU < 0 || hs.PCPU == pid) {
			ps.bgCursor = j
			return v
		}
	}
	return nil
}
