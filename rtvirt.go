// Package rtvirt is a library-scale reproduction of "RTVirt: Enabling
// Time-sensitive Computing on Virtualized Systems through Cross-layer CPU
// Scheduling" (Zhao & Cabrera, EuroSys 2018).
//
// RTVirt lets the two levels of schedulers on a virtualized host — the
// hypervisor's VM scheduler and each guest OS's process scheduler —
// exchange scheduling information through a paravirtual channel (a
// hypercall plus shared memory), so that an optimal multiprocessor
// scheduler (DP-WRAP) at the host can meet the deadlines of the real-time
// applications running inside the VMs while using practically all of the
// host's CPU bandwidth.
//
// Because a hypervisor cannot live inside a garbage-collected runtime,
// this package ships the complete system on a deterministic discrete-event
// simulation of a multiprocessor VM host: the VMM kernel, cross-layer
// guests with pEDF process scheduling, the DP-WRAP host scheduler, and the
// baselines the paper evaluates against (RT-Xen's gEDF + deferrable
// servers with CARTS/DMPR-style offline analysis, plain two-level EDF, and
// Xen's Credit scheduler). Every table and figure of the paper's
// evaluation has a driver in the Experiments section of this API.
//
// # Quick start
//
//	sys := rtvirt.NewSystem(rtvirt.DefaultConfig(rtvirt.StackRTVirt))
//	vm, _ := sys.NewGuest("vm0", 1)
//	app, _ := rtvirt.NewRTApp(vm, 0, "sensor",
//		rtvirt.Params{Slice: 2 * rtvirt.Millisecond, Period: 10 * rtvirt.Millisecond})
//	sys.Start()
//	app.Start(0)
//	sys.Run(10 * rtvirt.Second)
//	fmt.Println(app.Task.Stats())
//
// See examples/ for runnable scenarios and EXPERIMENTS.md for the
// paper-versus-measured record.
package rtvirt

import (
	"fmt"
	"io"

	"rtvirt/internal/analyze"
	"rtvirt/internal/clone"
	"rtvirt/internal/cluster"
	"rtvirt/internal/core"
	"rtvirt/internal/csa"
	"rtvirt/internal/dist"
	"rtvirt/internal/experiments"
	"rtvirt/internal/guest"
	"rtvirt/internal/hv"
	"rtvirt/internal/metrics"
	"rtvirt/internal/scenario"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
	"rtvirt/internal/trace"
	"rtvirt/internal/workload"
)

// Time and duration primitives of the simulation (integer nanoseconds).
type (
	// Time is an absolute simulated instant.
	Time = simtime.Time
	// Duration is a span of simulated time.
	Duration = simtime.Duration
)

// Common durations.
const (
	Nanosecond  = simtime.Nanosecond
	Microsecond = simtime.Microsecond
	Millisecond = simtime.Millisecond
	Second      = simtime.Second
	Minute      = simtime.Minute
)

// Task model.
type (
	// Task is a real-time or background application thread inside a VM.
	Task = task.Task
	// Params is a timeliness requirement: Slice of CPU every Period.
	Params = task.Params
	// Job is one activation of a task. A job released by a guest OS is
	// valid until its completion has been handled; the guest then zeroes
	// the record and reuses it, so copy *j inside OnJobDone to keep it.
	Job = task.Job
	// TaskStats accumulates a task's deadline outcomes.
	TaskStats = task.Stats
)

// Task kinds.
const (
	Periodic   = task.Periodic
	Sporadic   = task.Sporadic
	Background = task.Background
)

// NewTask creates a task with the given timeliness requirement.
func NewTask(id int, name string, kind task.Kind, p Params) *Task {
	return task.New(id, name, kind, p)
}

// System assembly.
type (
	// System is a complete simulated virtualization host.
	System = core.System
	// SystemConfig selects the stack, platform size and cost model.
	SystemConfig = core.Config
	// Stack selects the scheduling architecture.
	Stack = core.Stack
	// Guest is a guest operating system inside one VM.
	Guest = guest.OS
	// GuestOpts tunes guest creation.
	GuestOpts = core.GuestOpts
	// Reservation is a host-level CPU reservation (budget, period).
	Reservation = hv.Reservation
	// CostModel holds the platform costs charged by the simulation.
	CostModel = hv.CostModel
	// Cost is one distribution-valued cost term of the model.
	Cost = hv.Cost
)

// ConstCost is a fixed cost term; constant terms never draw from the
// per-host cost RNG stream.
func ConstCost(d Duration) Cost { return hv.ConstCost(d) }

// DistCost is a cost term sampled from a duration distribution on the
// dedicated per-host cost stream.
func DistCost(d DurationDist) Cost { return hv.DistCost(d) }

// CalibratedCosts returns the distribution-valued, per-cause cost model
// (heavy-tailed migrations and cold switches, lognormal hypercalls).
func CalibratedCosts() CostModel { return hv.CalibratedCosts() }

// Stacks.
const (
	// StackRTVirt is the paper's system: cross-layer pEDF guests over the
	// DP-WRAP host scheduler.
	StackRTVirt = core.RTVirt
	// StackRTXen is the primary baseline: gEDF + deferrable servers.
	StackRTXen = core.RTXen
	// StackTwoLevelEDF is the uncoordinated baseline of Figure 1.
	StackTwoLevelEDF = core.TwoLevelEDF
	// StackCredit is Xen's default proportional-share scheduler.
	StackCredit = core.Credit
)

// NewSystem builds a simulated host with the configured stack.
func NewSystem(cfg SystemConfig) *System { return core.NewSystem(cfg) }

// DefaultConfig mirrors the paper's evaluation platform (15 PCPUs, 500µs
// budget slack, the §4 cost constants).
func DefaultConfig(stack Stack) SystemConfig { return core.DefaultConfig(stack) }

// DefaultCosts returns the cost model used throughout the evaluation.
func DefaultCosts() CostModel { return hv.DefaultCosts() }

// CloneCtx is the memo of a deep fork: System.Fork and Cluster.Fork return
// one mapping every object of the original world to its replica.
type CloneCtx = clone.Ctx

// CloneGet remaps a reference the caller holds (a task, guest or workload
// driver) to its replica in a forked world. It panics if v was not part of
// the forked object graph.
func CloneGet[T comparable](ctx *CloneCtx, v T) T { return clone.Get(ctx, v) }

// Workloads.
type (
	// RTApp is the rt-app periodic load generator of §4.2.
	RTApp = workload.RTApp
	// Client drives a sporadic RTA from a request stream over the network
	// (§4.2).
	Client = workload.Client
	// VideoStream is a VLC transcoding thread (§4.3, Table 3).
	VideoStream = workload.VideoStream
	// VideoProfile is one row of Table 3.
	VideoProfile = workload.VideoProfile
	// Memcached is a memcached VM under a Mutilate-style load (§4.4).
	Memcached = workload.Memcached
	// MemcachedConfig tunes the memcached workload.
	MemcachedConfig = workload.MemcachedConfig
	// CPUHog is a best-effort CPU-bound process.
	CPUHog = workload.CPUHog
	// IOApp is a request-driven app mixing CPU phases with I/O waits.
	IOApp = workload.IOApp
	// IOAppConfig tunes the I/O-bound workload.
	IOAppConfig = workload.IOAppConfig
	// DurationDist is a random duration source for workload generators.
	DurationDist = dist.Duration
)

// NewRTApp registers a periodic rt-app task on g.
func NewRTApp(g *Guest, id int, name string, p Params) (*RTApp, error) {
	return workload.NewRTApp(g, id, name, p)
}

// NewSporadicClient registers a sporadic task on g driven by a client that
// sends requests (0 = unbounded) at gaps drawn from inter, like §4.2's TCP
// clients.
func NewSporadicClient(g *Guest, id int, name string, p Params, inter DurationDist, requests int) (*Client, error) {
	if requests < 0 {
		return nil, fmt.Errorf("rtvirt: negative request cap %d", requests)
	}
	t := task.New(id, name, task.Sporadic, p)
	if err := g.Register(t); err != nil {
		return nil, err
	}
	return AttachSporadicClient(g, t, inter, requests), nil
}

// NewVideoStream registers a transcoding RTA for the given frame rate.
func NewVideoStream(g *Guest, id, fps int) (*VideoStream, error) {
	return workload.NewVideoStream(g, id, fps)
}

// NewMemcached registers a memcached RTA on g.
func NewMemcached(g *Guest, id int, cfg MemcachedConfig) (*Memcached, error) {
	return workload.NewMemcached(g, id, cfg)
}

// DefaultMemcachedConfig mirrors §4.4 (500µs SLO, 100 QPS, 58µs slice).
func DefaultMemcachedConfig() MemcachedConfig { return workload.DefaultMemcachedConfig() }

// NewIOApp registers an I/O-bound request application on g: RTVirt
// guarantees its CPU phases; the I/O waits are outside the contract (§1).
func NewIOApp(g *Guest, id int, cfg IOAppConfig) (*IOApp, error) {
	return workload.NewIOApp(g, id, cfg)
}

// DefaultIOAppConfig models a storage-backed RPC (30µs + 80µs CPU around a
// ~200µs device wait, 1ms SLO).
func DefaultIOAppConfig() IOAppConfig { return workload.DefaultIOAppConfig() }

// NewCPUHog registers a background CPU-bound task on g.
func NewCPUHog(g *Guest, id int, name string) (*CPUHog, error) {
	return workload.NewCPUHog(g, id, name)
}

// NewBackgroundTask creates a best-effort task with no deadline.
func NewBackgroundTask(id int, name string) *Task { return task.NewBackground(id, name) }

// AttachSporadicClient wires a client onto an already-registered sporadic
// task: it sends requests (0 = unbounded; negative panics at Start) at
// gaps drawn from inter.
func AttachSporadicClient(g *Guest, t *Task, inter DurationDist, requests int) *Client {
	c := workload.NewClient(g, t, workload.Renewal{D: inter})
	c.Requests = requests
	return c
}

// VideoProfiles reproduces Table 3 of the paper.
func VideoProfiles() []VideoProfile { return workload.VideoProfiles }

// UniformDist returns a uniform duration distribution on [lo, hi].
func UniformDist(lo, hi Duration) DurationDist { return dist.Uniform{Lo: lo, Hi: hi} }

// NormalDist returns a normal duration distribution clamped at min.
func NormalDist(mean, stddev, min Duration) DurationDist {
	return dist.Normal{MeanD: mean, Stddev: stddev, Min: min}
}

// Metrics.
type (
	// LatencyRecorder stores latency samples with exact percentiles.
	LatencyRecorder = metrics.LatencyRecorder
	// MissSummary aggregates deadline outcomes across tasks.
	MissSummary = metrics.MissSummary
	// CDFPoint is one point of an empirical latency CDF.
	CDFPoint = metrics.CDFPoint
	// P2Quantile tracks one quantile of an unbounded stream in O(1) memory.
	P2Quantile = metrics.P2Quantile
)

// NewP2Quantile creates a streaming estimator for quantile p in (0,1).
func NewP2Quantile(p float64) *P2Quantile { return metrics.NewP2Quantile(p) }

// SummarizeMisses aggregates deadline statistics over tasks.
func SummarizeMisses(tasks []*Task) MissSummary { return workload.MissSummary(tasks) }

// Offline analysis (the CARTS/DMPR stand-in used to configure RT-Xen).
type (
	// Interface is a periodic resource abstraction (Θ every Π).
	Interface = csa.Interface
)

// BestInterface searches candidate periods for the minimal-bandwidth CSA
// interface of an EDF task set, at the given budget resolution.
func BestInterface(tasks []Params, candidates []Duration, quantum Duration) (Interface, bool) {
	return csa.BestInterfaceQ(tasks, candidates, quantum)
}

// InterfaceCandidates returns the default period grid for BestInterface.
func InterfaceCandidates(tasks []Params) []Duration { return csa.DefaultCandidates(tasks) }

// Declarative scenarios (cmd/rtvirt-sim's engine).
type (
	// Scenario is a JSON-describable experiment: a stack, a host, VMs
	// and their tasks.
	Scenario = scenario.Scenario
	// ScenarioVM describes one VM of a scenario.
	ScenarioVM = scenario.VM
	// ScenarioTask describes one task of a scenario VM.
	ScenarioTask = scenario.TaskSpec
	// ScenarioServer is an explicit (budget, period) VCPU server.
	ScenarioServer = scenario.ServerSpec
	// ScenarioOptions tunes RunScenario (e.g. schedule tracing).
	ScenarioOptions = scenario.Options
	// ScenarioResult is the per-task and host-level outcome.
	ScenarioResult = scenario.Result
)

// ParseScenario decodes a scenario from JSON, rejecting unknown fields.
func ParseScenario(r io.Reader) (Scenario, error) { return scenario.Parse(r) }

// RunScenario simulates a scenario and reports per-task timeliness plus
// scheduler overhead.
func RunScenario(sc Scenario, opt ScenarioOptions) (*ScenarioResult, error) {
	return scenario.Run(sc, opt)
}

// Scenario admission analysis (cmd/rtvirt-analyze's engine).
type (
	// AnalyzeOptions tunes the offline admission analysis.
	AnalyzeOptions = analyze.Options
	// HostAnalysis is a whole-scenario admission plan.
	HostAnalysis = analyze.HostAnalysis
	// VMAnalysis is one VM's VCPU plans under both stacks.
	VMAnalysis = analyze.VMAnalysis
	// VCPUPlan is one VCPU's tasks plus its reserved interface.
	VCPUPlan = analyze.VCPUPlan
)

// AnalyzeScenario derives per-VCPU interfaces (static RT-Xen and RTVirt
// §3.3 sizing) and host-level admission for a scenario without simulating
// it. The same JSON drives RunScenario.
func AnalyzeScenario(sc Scenario, opt AnalyzeOptions) (HostAnalysis, error) {
	return analyze.Analyze(sc, opt)
}

// Schedule tracing.
type (
	// TraceRecorder accumulates scheduling events for offline inspection.
	TraceRecorder = trace.Recorder
	// TraceEvent is the typed telemetry event every layer emits.
	TraceEvent = trace.Event
	// TraceKind classifies a telemetry event.
	TraceKind = trace.Kind
	// TraceSink consumes telemetry events from the host's bus.
	TraceSink = trace.Sink
	// TraceCounts is a per-kind event counter sink.
	TraceCounts = trace.Counts
	// TraceSummary is the structural digest of a trace: per-VCPU runtime,
	// dispatches and migrations, per-PCPU utilization.
	TraceSummary = trace.Summary
)

// SummarizeTrace digests a recorded schedule; it cross-checks the kernel's
// own accounting meters.
func SummarizeTrace(rec *TraceRecorder) TraceSummary { return trace.Summarize(rec) }

// AttachTracer records sys's scheduling events (dispatches, preemptions,
// completions, misses, hypercalls, migrations, budget transitions) into
// rec. Use rec.WriteCSV or rec.Timeline afterwards. For custom
// consumers attach any TraceSink with sys.Host.TraceTo.
func AttachTracer(sys *System, rec *TraceRecorder) {
	sys.Host.TraceTo(rec)
}

// Multi-host extension (§6): placement, live migration and host failover,
// one simulator per host; control calls run between Run calls.
type (
	// Cluster is a set of RTVirt hosts under one placement controller.
	Cluster = cluster.Sharded
	// ClusterConfig describes a cluster.
	ClusterConfig = cluster.ShardedConfig
	// ClusterHost is one member host.
	ClusterHost = cluster.ShardHost
	// Deployment is a placed VM.
	Deployment = cluster.ShardedDeployment
	// VMSpec describes a deployable VM.
	VMSpec = cluster.VMSpec
	// ClusterTaskSpec describes one application of a VM deployment.
	ClusterTaskSpec = cluster.TaskSpec
	// Policy selects the placement heuristic.
	Policy = cluster.Policy
)

// Placement policies.
const (
	FirstFit = cluster.FirstFit
	BestFit  = cluster.BestFit
	WorstFit = cluster.WorstFit
)

// NewCluster builds a multi-host cluster, one simulator per host.
func NewCluster(cfg ClusterConfig) *Cluster { return cluster.NewSharded(cfg) }

// ClusterDefaults returns a 4×4-CPU RTVirt cluster configuration.
func ClusterDefaults() ClusterConfig { return cluster.DefaultShardedConfig() }

// Experiments: one driver per table and figure of the paper (§4). See
// cmd/rtvirt-bench for a CLI over these.
type (
	// Figure1Result contrasts the motivating example under both stacks.
	Figure1Result = experiments.Figure1Result
	// Figure3Row is one RTA group's bandwidth accounting.
	Figure3Row = experiments.Figure3Row
	// Figure3Config tunes the periodic/sporadic group experiments.
	Figure3Config = experiments.Figure3Config
	// Figure4Config tunes the dynamic video-streaming experiment.
	Figure4Config = experiments.Figure4Config
	// Figure4Result is the outcome of the dynamic experiment.
	Figure4Result = experiments.Figure4Result
	// Figure5Config tunes the memcached contention experiments.
	Figure5Config = experiments.Figure5Config
	// Figure5Row is one arm's outcome under contention.
	Figure5Row = experiments.Figure5Row
	// Table4Row is one scheduler's dedicated-CPU tail latencies.
	Table4Row = experiments.Table4Row
	// Table6Config tunes the scalability experiment.
	Table6Config = experiments.Table6Config
	// Table6Row is one framework's overhead measurement.
	Table6Row = experiments.Table6Row
	// Table6Scenario selects Multi-RTA or Single-RTA VMs.
	Table6Scenario = experiments.Table6Scenario
	// RTAGroup is a named set of RTAs (Tables 1 and 5).
	RTAGroup = experiments.RTAGroup
	// AblationRow is one configuration point of an ablation sweep.
	AblationRow = experiments.AblationRow
	// RobustnessResult summarises one headline claim across seeds.
	RobustnessResult = experiments.RobustnessResult
	// LoadStepConfig tunes the warm-start Figure-5 load sweep.
	LoadStepConfig = experiments.LoadStepConfig
	// LoadStepRow is one (arm, hog count) point of the load sweep.
	LoadStepRow = experiments.LoadStepRow
	// SurgeRow is one admission-surge point of the forked Figure-4 sweep.
	SurgeRow = experiments.SurgeRow
	// BisectResult reports where two systems' dispatch streams part ways.
	BisectResult = experiments.BisectResult
	// FidelityConfig tunes the constant-vs-calibrated cost ablation.
	FidelityConfig = experiments.FidelityConfig
	// FidelityResult is the full cost-fidelity ablation.
	FidelityResult = experiments.FidelityResult
	// FidelityRow is one scheduler comparison under both cost models.
	FidelityRow = experiments.FidelityRow
	// AttackConfig tunes the adversarial attack/controller suite.
	AttackConfig = experiments.AttackConfig
	// AttackResult is the full adversarial suite record (attacks.json).
	AttackResult = experiments.AttackResult
	// AttackRow is one scheduler × accounting row under the tick evader.
	AttackRow = experiments.AttackRow
)

// Experiment scenarios re-exported from the drivers.
const (
	MultiRTAVMs  = experiments.MultiRTAVMs
	SingleRTAVMs = experiments.SingleRTAVMs
)

// Experiment drivers.
var (
	// Figure1 runs the motivating example (§2) under both stacks.
	Figure1 = experiments.Figure1
	// Figure3 runs every Table-1 group under RTVirt and RT-Xen.
	Figure3 = experiments.Figure3
	// Table2 reproduces the NH-Dec configuration table.
	Table2 = experiments.Table2
	// Figure4 runs the dynamic video-streaming experiment (§4.3).
	Figure4 = experiments.Figure4
	// Table4 measures memcached tail latency on a dedicated CPU.
	Table4 = experiments.Table4
	// Figure5a runs memcached against 19 CPU-bound VMs on two PCPUs.
	Figure5a = experiments.Figure5a
	// Figure5b runs five memcached VMs against ten video VMs.
	Figure5b = experiments.Figure5b
	// Table6 runs the scalability/overhead scenarios (§4.5).
	Table6 = experiments.Table6
	// Table1Groups returns the periodic RTA groups of Table 1.
	Table1Groups = experiments.Table1Groups
	// Table5Groups returns the scalability groups of Table 5.
	Table5Groups = experiments.Table5Groups

	// Ablations of the design choices DESIGN.md calls out.
	AblationMinSlice       = experiments.AblationMinSlice
	AblationSlack          = experiments.AblationSlack
	AblationServerFlavour  = experiments.AblationServerFlavour
	AblationWorkConserving = experiments.AblationWorkConserving
	AblationIdleTax        = experiments.AblationIdleTax
	AblationGuestScheduler = experiments.AblationGuestScheduler
	RenderAblation         = experiments.RenderAblation

	// Robustness re-runs the headline claims across seeds.
	Robustness       = experiments.Robustness
	RenderRobustness = experiments.RenderRobustness

	// Warm-start sweeps and the divergence bisector, built on System.Fork.
	Figure5LoadSteps       = experiments.Figure5LoadSteps
	DefaultLoadStepConfig  = experiments.DefaultLoadStepConfig
	RenderLoadSteps        = experiments.RenderLoadSteps
	Figure4Surge           = experiments.Figure4Surge
	RenderFigure4Surge     = experiments.RenderFigure4Surge
	AblationNewcomerForked = experiments.AblationNewcomerForked
	// Bisect binary-searches simulated time for the first dispatch where
	// two deterministic systems diverge, forking frontiers instead of
	// re-simulating prefixes.
	Bisect = experiments.Bisect

	// IOBound measures the §1 guarantee boundary with an I/O-phase RPC.
	IOBound  = experiments.IOBound
	RenderIO = experiments.RenderIO

	// FidelityAblation re-runs Figure 3 and Table 6 under the constant and
	// calibrated cost models and reports which comparisons are robust.
	FidelityAblation      = experiments.FidelityAblation
	DefaultFidelityConfig = experiments.DefaultFidelityConfig
	RenderFidelity        = experiments.RenderFidelity

	// Attacks runs the tick-evasion attacker against every scheduler
	// stack and the adaptive controller's convergence/backoff worlds.
	Attacks             = experiments.Attacks
	DefaultAttackConfig = experiments.DefaultAttackConfig
	RenderAttacks       = experiments.RenderAttacks

	// Defaults for the experiment configs.
	DefaultFigure3Config = experiments.DefaultFigure3Config
	DefaultFigure4Config = experiments.DefaultFigure4Config
	DefaultFigure5Config = experiments.DefaultFigure5Config
	DefaultTable6Config  = experiments.DefaultTable6Config

	// Renderers format results as fixed-width tables.
	RenderFigure3 = experiments.RenderFigure3
	RenderTable2  = experiments.RenderTable2
	RenderTable4  = experiments.RenderTable4
	RenderFigure5 = experiments.RenderFigure5
	RenderTable6  = experiments.RenderTable6
)
