// Package scenario loads and executes user-described simulation scenarios
// from JSON — the engine behind cmd/rtvirt-sim.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"rtvirt/internal/core"
	"rtvirt/internal/dist"
	"rtvirt/internal/guest"
	"rtvirt/internal/hv"
	"rtvirt/internal/metrics"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
	"rtvirt/internal/trace"
	"rtvirt/internal/workload"
)

// Scenario is the JSON schema rtvirt-sim executes.
type Scenario struct {
	// Stack: rtvirt | rt-xen | two-level-edf | credit (default rtvirt).
	Stack string `json:"stack"`
	// PCPUs is the host size (0 = DefaultPCPUs).
	PCPUs int `json:"pcpus"`
	// Seconds is the simulated run length (0 = DefaultSeconds).
	Seconds int64 `json:"seconds"`
	// Seed fixes the random streams (default 1).
	Seed uint64 `json:"seed"`
	// Costs overrides pieces of the platform cost model; omitted fields
	// keep the §4 defaults (hv.DefaultCosts).
	Costs *CostsSpec `json:"costs"`
	VMs   []VM       `json:"vms"`
}

// CostsSpec overrides the platform cost model per cause. Only the fields
// present in the JSON are applied; absent fields keep the defaults
// (10µs hypercall, 2µs context switch, 3µs migration — §4.5). Each term is
// a CostSpec: a bare number (constant µs) or a distribution object.
//
// The generic fields fan out: context_switch sets both the warm and cold
// switch terms, hypercall sets all three hypercall flags. Giving a generic
// field together with one of its specific counterparts is rejected.
type CostsSpec struct {
	// Per-cause terms. ContextSwitch/Hypercall are the generic forms.
	ContextSwitch     *CostSpec `json:"context_switch,omitempty"`
	CtxSwitchWarm     *CostSpec `json:"ctx_switch_warm,omitempty"`
	CtxSwitchCold     *CostSpec `json:"ctx_switch_cold,omitempty"`
	Hypercall         *CostSpec `json:"hypercall,omitempty"`
	HypercallIncBW    *CostSpec `json:"hypercall_inc_bw,omitempty"`
	HypercallDecBW    *CostSpec `json:"hypercall_dec_bw,omitempty"`
	HypercallIncDecBW *CostSpec `json:"hypercall_inc_dec_bw,omitempty"`
	Migration         *CostSpec `json:"migration,omitempty"`
	MigrationPerMiB   *CostSpec `json:"migration_per_mib,omitempty"`
	ScheduleBase      *CostSpec `json:"schedule_base,omitempty"`
	SchedulePerEntity *CostSpec `json:"schedule_per_entity,omitempty"`
	GuestSwitch       *CostSpec `json:"guest_switch,omitempty"`
	// Tick is the periodic accounting-tick cost charged by tick-driven
	// schedulers (Credit).
	Tick *CostSpec `json:"tick,omitempty"`

	// NetworkDelayUS overrides the client→server network delay applied to
	// sporadic request streams (default 19µs, the paper's measured p99.9).
	// Unlike the other costs it must be strictly positive: it doubles as
	// the conservative-PDES lookahead bound in sharded cluster runs, and a
	// zero lookahead admits no parallel window at all.
	NetworkDelayUS *float64 `json:"network_delay_us,omitempty"`
}

// retiredCosts pairs each removed scalar *_us cost field with its
// replacement; a bare number there is the same constant in µs.
var retiredCosts = [...]struct{ old, now string }{
	{"context_switch_us", "context_switch"},
	{"migration_us", "migration"},
	{"hypercall_us", "hypercall"},
}

// UnmarshalJSON decodes the block strictly (custom unmarshalers never see
// the outer decoder's DisallowUnknownFields) and turns a retired field
// into an error naming its replacement rather than a bare unknown field.
func (c *CostsSpec) UnmarshalJSON(b []byte) error {
	type plain CostsSpec // no methods: avoids recursing into this unmarshaler
	var p plain
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		var keys map[string]json.RawMessage
		if json.Unmarshal(b, &keys) == nil {
			for _, r := range retiredCosts {
				for k := range keys {
					if strings.EqualFold(k, r.old) {
						return fmt.Errorf("costs.%s was removed; use costs.%s (a bare number is still µs)", r.old, r.now)
					}
				}
			}
		}
		return fmt.Errorf("costs: %w", err)
	}
	*c = CostsSpec(p)
	return nil
}

// specs names every CostSpec field for validation and application.
func (c *CostsSpec) specs() []struct {
	name string
	spec *CostSpec
} {
	return []struct {
		name string
		spec *CostSpec
	}{
		{"context_switch", c.ContextSwitch},
		{"ctx_switch_warm", c.CtxSwitchWarm},
		{"ctx_switch_cold", c.CtxSwitchCold},
		{"hypercall", c.Hypercall},
		{"hypercall_inc_bw", c.HypercallIncBW},
		{"hypercall_dec_bw", c.HypercallDecBW},
		{"hypercall_inc_dec_bw", c.HypercallIncDecBW},
		{"migration", c.Migration},
		{"migration_per_mib", c.MigrationPerMiB},
		{"schedule_base", c.ScheduleBase},
		{"schedule_per_entity", c.SchedulePerEntity},
		{"guest_switch", c.GuestSwitch},
		{"tick", c.Tick},
	}
}

// validate checks each given term and rejects contradictory combinations.
func (c *CostsSpec) validate() error {
	for _, f := range c.specs() {
		if f.spec == nil {
			continue
		}
		if err := f.spec.validate(f.name); err != nil {
			return err
		}
	}
	type conflict struct{ a, b string }
	pairs := []struct {
		gotA, gotB bool
		conflict
	}{
		{c.ContextSwitch != nil, c.CtxSwitchWarm != nil, conflict{"context_switch", "ctx_switch_warm"}},
		{c.ContextSwitch != nil, c.CtxSwitchCold != nil, conflict{"context_switch", "ctx_switch_cold"}},
		{c.Hypercall != nil, c.HypercallIncBW != nil, conflict{"hypercall", "hypercall_inc_bw"}},
		{c.Hypercall != nil, c.HypercallDecBW != nil, conflict{"hypercall", "hypercall_dec_bw"}},
		{c.Hypercall != nil, c.HypercallIncDecBW != nil, conflict{"hypercall", "hypercall_inc_dec_bw"}},
	}
	for _, p := range pairs {
		if p.gotA && p.gotB {
			return fmt.Errorf("scenario: costs.%s and costs.%s are mutually exclusive", p.a, p.b)
		}
	}
	return nil
}

// CostModel returns hv.DefaultCosts with the overrides applied. It exists
// for builders that assemble system configs themselves instead of going
// through Build (the sharded-cluster quick harness); a nil receiver
// returns the plain defaults.
func (c *CostsSpec) CostModel() hv.CostModel {
	m := hv.DefaultCosts()
	if c != nil {
		c.apply(&m)
	}
	return m
}

// apply folds the overrides into a cost model.
func (c *CostsSpec) apply(m *hv.CostModel) {
	if c.ContextSwitch != nil {
		m.SetContextSwitch(c.ContextSwitch.toCost())
	}
	if c.CtxSwitchWarm != nil {
		m.CtxSwitchWarm = c.CtxSwitchWarm.toCost()
	}
	if c.CtxSwitchCold != nil {
		m.CtxSwitchCold = c.CtxSwitchCold.toCost()
	}
	if c.Hypercall != nil {
		m.SetHypercall(c.Hypercall.toCost())
	}
	if c.HypercallIncBW != nil {
		m.HypercallIncBW = c.HypercallIncBW.toCost()
	}
	if c.HypercallDecBW != nil {
		m.HypercallDecBW = c.HypercallDecBW.toCost()
	}
	if c.HypercallIncDecBW != nil {
		m.HypercallIncDecBW = c.HypercallIncDecBW.toCost()
	}
	if c.Migration != nil {
		m.Migration = c.Migration.toCost()
	}
	if c.MigrationPerMiB != nil {
		m.MigrationPerMiB = c.MigrationPerMiB.toCost()
	}
	if c.ScheduleBase != nil {
		m.ScheduleBase = c.ScheduleBase.toCost()
	}
	if c.SchedulePerEntity != nil {
		m.SchedulePerEntity = c.SchedulePerEntity.toCost()
	}
	if c.GuestSwitch != nil {
		m.GuestSwitch = c.GuestSwitch.toCost()
	}
	if c.Tick != nil {
		m.Tick = c.Tick.toCost()
	}
}

func usToDur(us float64) simtime.Duration {
	return simtime.Duration(us * float64(simtime.Microsecond))
}

// VM describes one guest.
type VM struct {
	Name string `json:"name"`
	// VCPUs is the virtual CPU count (default 1) when Servers is empty.
	VCPUs int `json:"vcpus"`
	// Servers gives explicit per-VCPU (budget, period) reservations — the
	// RT-Xen/two-level configuration style; under Credit they become caps.
	Servers []ServerSpec `json:"servers"`
	// Weight is the Credit share weight (default 256).
	Weight int        `json:"weight"`
	Tasks  []TaskSpec `json:"tasks"`
	// MaxVCPUs allows CPU hotplug up to this bound (0 = fixed VCPUs).
	// Ignored when Servers is given or under the Credit stack.
	MaxVCPUs int `json:"max_vcpus"`
	// SlackUS overrides the per-VCPU budget slack in µs (nil = the
	// stack default, 500µs under RTVirt). Explicit 0 disables slack.
	SlackUS *int64 `json:"slack_us"`
	// GuestSched selects the guest process scheduler: "pedf" (default)
	// or "gedf" (§6's global-EDF alternative).
	GuestSched string `json:"guest_sched"`
	// PrioritySlack scales each VCPU's slack by (1 + highest task
	// priority) — §6's priority-proportional provisioning.
	PrioritySlack bool `json:"priority_slack"`
	// WorkingSetMiB declares the VM's working-set size, which scales
	// cross-PCPU migration cost via the model's migration_per_mib term
	// (0 = migrations cost only the fixed term).
	WorkingSetMiB int `json:"working_set_mib"`
}

// ServerSpec is an explicit (budget, period) VCPU reservation.
type ServerSpec struct {
	BudgetUS int64 `json:"budget_us"`
	PeriodUS int64 `json:"period_us"`
}

// TaskSpec describes one application.
type TaskSpec struct {
	Name string `json:"name"`
	// Kind: periodic (default) | sporadic | background | evader.
	Kind     string `json:"kind"`
	SliceUS  int64  `json:"slice_us"`
	PeriodUS int64  `json:"period_us"`
	// PhaseMS delays the first periodic release.
	PhaseMS int64 `json:"phase_ms"`
	// RateHz drives the closed-form sporadic client (0 = 10 Hz; at most
	// 10 kHz, the rate its 100µs gap floor allows).
	RateHz float64 `json:"rate_hz"`
	// Priority expresses relative importance (0 = normal); with the VM's
	// priority_slack it buys proportionally more budget headroom.
	Priority int `json:"priority"`
	// Arrivals replaces a sporadic task's closed-form client with an
	// open-loop production-traffic stream (diurnal/MMPP/flash-crowd).
	Arrivals *ArrivalSpec `json:"arrivals,omitempty"`
	// Adaptive attaches a feedback controller that retunes the task's
	// slice from observed response times via INC/DEC_BW.
	Adaptive *AdaptiveSpec `json:"adaptive,omitempty"`
	// Evader tunes a kind:"evader" tick-evasion attacker (optional; the
	// zero config learns the tick period).
	Evader *EvaderSpec `json:"evader,omitempty"`
}

// maxPeriodUS bounds every task and server period_us (and so every slice
// and budget, which may not exceed their period): 100 s, far above the
// 3–50 ms periods the experiments and generated scenarios use. Offline
// analysis tries one CSA server period per millisecond up to the smallest
// task period, so an unbounded period made its cost grow with the input
// (10¹² µs would ask for about 8 GB), and past about 9.2·10¹⁵ µs the
// conversion to simulated time overflows.
const maxPeriodUS = 100_000_000

// closedFormMinGap floors the closed-form sporadic client's gaps, so no
// rate_hz above one request per closedFormMinGap can be met.
const closedFormMinGap = 100 * simtime.Microsecond

// Rate is the closed-form sporadic client's request rate in Hz: RateHz, or
// 10 Hz when it is 0.
func (ts TaskSpec) Rate() float64 {
	if ts.RateHz == 0 {
		return 10
	}
	return ts.RateHz
}

// TaskResult is one task's outcome.
type TaskResult struct {
	VM        string
	Name      string
	Kind      string
	Stats     task.Stats
	MissRatio float64
	// Latency holds response times for sporadic tasks.
	Latency *metrics.LatencyRecorder
}

// Result is a completed scenario run.
type Result struct {
	Stack       core.Stack
	PCPUs       int
	Seconds     int64
	AllocatedBW float64
	Tasks       []TaskResult
	Overhead    core.OverheadReport
	// Events tallies every telemetry event by kind when Options.Sinks was
	// non-empty. Per-run Counts merge deterministically across the
	// parallel runner.
	Events trace.Counts
}

// The host size and run length of a scenario that leaves them out (zero).
// Validate rejects negative values.
const (
	DefaultPCPUs   = 1
	DefaultSeconds = 10
)

// HostPCPUs reports the host size the scenario runs on: PCPUs, or
// DefaultPCPUs when it is zero. The simulator (Build) and the offline
// analysis (internal/analyze) both size the host by it.
func (sc Scenario) HostPCPUs() int {
	if sc.PCPUs == 0 {
		return DefaultPCPUs
	}
	return sc.PCPUs
}

// Parse decodes a scenario from JSON.
func Parse(r io.Reader) (Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("scenario: %w", err)
	}
	return sc, nil
}

// StackFor resolves a stack name.
func StackFor(name string) (core.Stack, error) {
	switch name {
	case "", "rtvirt":
		return core.RTVirt, nil
	case "rt-xen", "rtxen":
		return core.RTXen, nil
	case "two-level-edf", "edf":
		return core.TwoLevelEDF, nil
	case "credit":
		return core.Credit, nil
	default:
		return 0, fmt.Errorf("scenario: unknown stack %q", name)
	}
}

// Validate performs structural checks beyond JSON decoding.
func (sc Scenario) Validate() error {
	stack, err := StackFor(sc.Stack)
	if err != nil {
		return err
	}
	if len(sc.VMs) == 0 {
		return fmt.Errorf("scenario: no VMs")
	}
	if sc.PCPUs < 0 {
		return fmt.Errorf("scenario: pcpus must be 0 (the default, %d) or positive, got %d", DefaultPCPUs, sc.PCPUs)
	}
	if sc.Seconds < 0 {
		return fmt.Errorf("scenario: seconds must be 0 (the default, %d) or positive, got %d", DefaultSeconds, sc.Seconds)
	}
	if sc.Costs != nil {
		if err := sc.Costs.validate(); err != nil {
			return err
		}
		if d := sc.Costs.NetworkDelayUS; d != nil {
			if *d <= 0 || math.IsNaN(*d) || math.IsInf(*d, 0) {
				return fmt.Errorf("scenario: costs.network_delay_us must be positive (it is the PDES lookahead bound), got %v", *d)
			}
		}
	}
	for _, vm := range sc.VMs {
		if vm.Name == "" {
			return fmt.Errorf("scenario: VM without a name")
		}
		switch vm.GuestSched {
		case "", "pedf", "gedf":
		default:
			return fmt.Errorf("scenario: VM %q has unknown guest_sched %q", vm.Name, vm.GuestSched)
		}
		if vm.SlackUS != nil && *vm.SlackUS < 0 {
			return fmt.Errorf("scenario: VM %q has negative slack_us", vm.Name)
		}
		if vm.WorkingSetMiB < 0 {
			return fmt.Errorf("scenario: VM %q has negative working_set_mib", vm.Name)
		}
		if vm.MaxVCPUs != 0 && vm.MaxVCPUs < vm.VCPUs {
			return fmt.Errorf("scenario: VM %q max_vcpus %d below vcpus %d",
				vm.Name, vm.MaxVCPUs, vm.VCPUs)
		}
		for i, srv := range vm.Servers {
			// A server without budget is no reservation: the RT stacks
			// would run the VCPU as unreserved background. Only Credit
			// reads a zero budget, as an uncapped share.
			if srv.BudgetUS < 0 || (srv.BudgetUS == 0 && stack != core.Credit) {
				return fmt.Errorf("scenario: VM %q server %d budget_us must be positive under %v, got %d",
					vm.Name, i, stack, srv.BudgetUS)
			}
			if srv.PeriodUS > maxPeriodUS {
				return fmt.Errorf("scenario: VM %q server %d period_us %d above the %dµs maximum",
					vm.Name, i, srv.PeriodUS, maxPeriodUS)
			}
		}
		for _, ts := range vm.Tasks {
			if ts.Priority < 0 {
				return fmt.Errorf("scenario: task %q has negative priority", ts.Name)
			}
			if maxHz := float64(simtime.Second / closedFormMinGap); !(ts.RateHz >= 0 && ts.RateHz <= maxHz) {
				return fmt.Errorf("scenario: task %q rate_hz must be in [0, %g], got %v", ts.Name, maxHz, ts.RateHz)
			}
			switch ts.Kind {
			case "", "periodic", "sporadic":
				if ts.SliceUS <= 0 || ts.PeriodUS <= 0 || ts.SliceUS > ts.PeriodUS {
					return fmt.Errorf("scenario: task %q has invalid (slice=%dµs, period=%dµs)",
						ts.Name, ts.SliceUS, ts.PeriodUS)
				}
				if ts.PeriodUS > maxPeriodUS {
					return fmt.Errorf("scenario: task %q period_us %d above the %dµs maximum",
						ts.Name, ts.PeriodUS, maxPeriodUS)
				}
			case "background", "evader":
			default:
				return fmt.Errorf("scenario: task %q has unknown kind %q", ts.Name, ts.Kind)
			}
			if ts.Arrivals != nil {
				if ts.Kind != "sporadic" {
					return fmt.Errorf("scenario: task %q has an arrivals block but kind %q (arrivals drive sporadic tasks)",
						ts.Name, ts.Kind)
				}
				if err := ts.Arrivals.validate(ts.Name); err != nil {
					return err
				}
			}
			if ts.Adaptive != nil {
				if ts.Kind == "background" || ts.Kind == "evader" {
					return fmt.Errorf("scenario: task %q has an adaptive block but kind %q (controllers retune RT reservations)",
						ts.Name, ts.Kind)
				}
				if err := ts.Adaptive.validate(ts.Name); err != nil {
					return err
				}
			}
			if ts.Evader != nil {
				if ts.Kind != "evader" {
					return fmt.Errorf("scenario: task %q has an evader block but kind %q", ts.Name, ts.Kind)
				}
				if err := ts.Evader.validate(ts.Name); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Options tunes Run.
type Options struct {
	// Sinks are telemetry consumers (e.g. a trace.Summary digest or a
	// trace.JSONL exporter) attached for the whole run. A non-empty Sinks
	// also attaches a per-kind event counter (Result.Events).
	Sinks []trace.Sink
	// OnSystem, when set, runs right after the system is built and the
	// sinks are attached, before any guest exists. Invariant oracles that
	// need the live host or scheduler (internal/check) hook in here.
	OnSystem func(*core.System)
}

// bound ties a task spec to its built task, guest, and latency recorder,
// plus whichever driver (controller, evader) the spec attached.
type bound struct {
	spec   TaskSpec
	vm     string
	task   *task.Task
	guest  *guest.OS
	lat    *metrics.LatencyRecorder
	ctrl   *guest.AdaptiveController
	evader *workload.TickEvader
}

// World is a built-but-not-started scenario: the system is constructed,
// telemetry sinks are attached, and every guest and task is registered,
// but the host has not started and no workload has been released. Callers
// that need to drive the simulation themselves (forking mid-run, pausing
// at checkpoints) use Build/Start/Finish; Run wraps the whole lifecycle.
type World struct {
	Sys     *core.System
	Stack   core.Stack
	Seconds int64

	all      []bound
	counts   *trace.Counts
	netDelay simtime.Duration
}

// NetworkDelay reports the client→server delay sporadic streams run with
// (the costs.network_delay_us override, or the workload default). Sharded
// runs built from the same scenario use it as their lookahead bound.
func (w *World) NetworkDelay() simtime.Duration { return w.netDelay }

// Controllers returns the adaptive controllers the scenario attached, in
// task declaration order.
func (w *World) Controllers() []*guest.AdaptiveController {
	var cs []*guest.AdaptiveController
	for i := range w.all {
		if w.all[i].ctrl != nil {
			cs = append(cs, w.all[i].ctrl)
		}
	}
	return cs
}

// Evaders returns the tick-evasion attackers the scenario attached, in
// task declaration order.
func (w *World) Evaders() []*workload.TickEvader {
	var es []*workload.TickEvader
	for i := range w.all {
		if w.all[i].evader != nil {
			es = append(es, w.all[i].evader)
		}
	}
	return es
}

// Run executes the scenario and returns its results.
func Run(sc Scenario, opts Options) (*Result, error) {
	w, err := Build(sc, opts)
	if err != nil {
		return nil, err
	}
	w.Start()
	w.Sys.Run(simtime.Duration(w.Seconds) * simtime.Second)
	return w.Finish(), nil
}

// Build validates the scenario and constructs its world without starting
// the host or releasing any workload.
func Build(sc Scenario, opts Options) (*World, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	stack, _ := StackFor(sc.Stack)
	cfg := core.DefaultConfig(stack)
	cfg.PCPUs = sc.HostPCPUs()
	if sc.Seed != 0 {
		cfg.Seed = sc.Seed
	}
	if sc.Costs != nil {
		sc.Costs.apply(&cfg.Costs)
	}
	sys := core.NewSystem(cfg)

	// Attach sinks before building the guests so admission events from
	// VCPU creation are observed too.
	sys.Host.TraceTo(opts.Sinks...)
	var counts *trace.Counts
	if len(opts.Sinks) > 0 {
		counts = &trace.Counts{}
		sys.Host.TraceTo(counts)
	}
	if opts.OnSystem != nil {
		opts.OnSystem(sys)
	}

	var all []bound
	id := 0
	for _, vmSpec := range sc.VMs {
		g, err := makeGuest(sys, stack, vmSpec)
		if err != nil {
			return nil, fmt.Errorf("scenario: vm %q: %w", vmSpec.Name, err)
		}
		g.VM().WorkingSetMiB = vmSpec.WorkingSetMiB
		for _, ts := range vmSpec.Tasks {
			tk, err := makeTask(g, id, ts)
			if err != nil {
				return nil, fmt.Errorf("scenario: vm %q task %q: %w", vmSpec.Name, ts.Name, err)
			}
			id++
			b := bound{spec: ts, vm: vmSpec.Name, task: tk, guest: g}
			if ts.Kind == "evader" {
				ev, err := workload.NewTickEvaderFor(g, tk, ts.Evader.evaderConfig())
				if err != nil {
					return nil, fmt.Errorf("scenario: vm %q task %q: %w", vmSpec.Name, ts.Name, err)
				}
				b.evader = ev
			}
			if ts.Adaptive != nil {
				ctrl, err := guest.NewAdaptiveController(g, tk, ts.Adaptive.adaptiveConfig())
				if err != nil {
					return nil, fmt.Errorf("scenario: vm %q task %q: %w", vmSpec.Name, ts.Name, err)
				}
				b.ctrl = ctrl
			}
			all = append(all, b)
		}
	}

	seconds := sc.Seconds
	if seconds == 0 {
		seconds = DefaultSeconds
	}
	netDelay := workload.DefaultNetworkDelay()
	if sc.Costs != nil && sc.Costs.NetworkDelayUS != nil {
		netDelay = usToDur(*sc.Costs.NetworkDelayUS)
	}
	return &World{Sys: sys, Stack: stack, Seconds: seconds, all: all,
		counts: counts, netDelay: netDelay}, nil
}

// Start starts the host and releases the scenario's workload. The caller
// then drives the simulation (w.Sys.Run or finer-grained stepping) and
// collects the outcome with Finish.
func (w *World) Start() {
	w.Sys.Start()
	for i := range w.all {
		b := &w.all[i]
		switch b.spec.Kind {
		case "periodic", "":
			b.guest.StartPeriodic(b.task,
				simtime.Time(simtime.Millis(b.spec.PhaseMS)))
		case "sporadic":
			var client *workload.Client
			if b.spec.Arrivals != nil {
				client = workload.NewClient(b.guest, b.task, b.spec.Arrivals.process())
			} else {
				rate := b.spec.Rate()
				mean := simtime.Duration(float64(simtime.Second) / rate)
				client = workload.NewClient(b.guest, b.task, workload.Renewal{
					D: dist.Normal{MeanD: mean, Stddev: mean / 4, Min: closedFormMinGap}})
				client.Requests = int(math.Ceil(float64(w.Seconds)*rate)) + 16
			}
			client.NetworkDelay = w.netDelay
			b.lat = &client.Latency
			client.Start(0)
		case "background":
			b.guest.ReleaseAt(b.task, 0, simtime.Duration(1<<60))
		case "evader":
			b.evader.Start(0)
		}
	}
	// Controllers start after every workload so their first window sees a
	// fully-released system; the loop order keeps starts deterministic.
	for i := range w.all {
		if w.all[i].ctrl != nil {
			w.all[i].ctrl.Start(0)
		}
	}
}

// Finish settles host accounting and assembles the run's results.
func (w *World) Finish() *Result {
	w.Sys.Host.Sync()
	res := &Result{
		Stack:       w.Stack,
		PCPUs:       w.Sys.Cfg.PCPUs,
		Seconds:     w.Seconds,
		AllocatedBW: w.Sys.AllocatedBandwidth(),
		Overhead:    w.Sys.Overhead(),
	}
	if w.counts != nil {
		res.Events = *w.counts
	}
	for _, b := range w.all {
		kind := b.spec.Kind
		if kind == "" {
			kind = "periodic"
		}
		st := b.task.Stats()
		res.Tasks = append(res.Tasks, TaskResult{
			VM:        b.vm,
			Name:      b.task.Name,
			Kind:      kind,
			Stats:     st,
			MissRatio: st.MissRatio(),
			Latency:   b.lat,
		})
	}
	return res
}

func makeGuest(sys *core.System, stack core.Stack, vm VM) (*guest.OS, error) {
	if len(vm.Servers) > 0 {
		var rsv []hv.Reservation
		for _, s := range vm.Servers {
			rsv = append(rsv, hv.Reservation{
				Budget: simtime.Micros(s.BudgetUS),
				Period: simtime.Micros(s.PeriodUS),
			})
		}
		w := vm.Weight
		if w == 0 {
			w = 256
		}
		return sys.NewServerGuest(vm.Name, rsv, w)
	}
	vcpus := vm.VCPUs
	if vcpus == 0 {
		vcpus = 1
	}
	if stack == core.Credit {
		w := vm.Weight
		if w == 0 {
			w = 256
		}
		return sys.NewWeightedGuest(vm.Name, vcpus, w)
	}
	opts := core.GuestOpts{
		VCPUs:         vcpus,
		MaxVCPUs:      vm.MaxVCPUs,
		GEDF:          vm.GuestSched == "gedf",
		PrioritySlack: vm.PrioritySlack,
	}
	if vm.SlackUS != nil {
		s := simtime.Micros(*vm.SlackUS)
		opts.Slack = &s
	}
	return sys.NewGuestOpts(vm.Name, opts)
}

func makeTask(g *guest.OS, id int, ts TaskSpec) (*task.Task, error) {
	switch ts.Kind {
	case "background", "evader":
		t := task.NewBackground(id, ts.Name)
		return t, g.Register(t)
	case "sporadic":
		t := task.New(id, ts.Name, task.Sporadic, task.Params{
			Slice:  simtime.Micros(ts.SliceUS),
			Period: simtime.Micros(ts.PeriodUS),
		})
		t.Priority = ts.Priority
		return t, g.Register(t)
	default:
		t := task.New(id, ts.Name, task.Periodic, task.Params{
			Slice:  simtime.Micros(ts.SliceUS),
			Period: simtime.Micros(ts.PeriodUS),
		})
		t.Priority = ts.Priority
		return t, g.Register(t)
	}
}
