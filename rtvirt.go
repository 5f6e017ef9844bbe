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
// Xen's Credit scheduler). This facade exports what the examples use;
// cmd/rtvirt-bench regenerates every table and figure of the paper's
// evaluation.
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
	"rtvirt/internal/analyze"
	"rtvirt/internal/cluster"
	"rtvirt/internal/core"
	"rtvirt/internal/experiments"
	"rtvirt/internal/guest"
	"rtvirt/internal/hv"
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
	Microsecond = simtime.Microsecond
	Millisecond = simtime.Millisecond
	Second      = simtime.Second
)

// Task model.
type (
	// Task is a real-time or background application thread inside a VM.
	Task = task.Task
	// Params is a timeliness requirement: Slice of CPU every Period.
	Params = task.Params
)

// Periodic is the kind of a task released once every period.
const Periodic = task.Periodic

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
	// CostModel holds the platform costs charged by the simulation.
	CostModel = hv.CostModel
)

// Stacks.
const (
	// StackRTVirt is the paper's system: cross-layer pEDF guests over the
	// DP-WRAP host scheduler.
	StackRTVirt = core.RTVirt
	// StackCredit is Xen's default proportional-share scheduler.
	StackCredit = core.Credit
)

// NewSystem builds a simulated host with the configured stack.
func NewSystem(cfg SystemConfig) *System { return core.NewSystem(cfg) }

// DefaultConfig mirrors the paper's evaluation platform (15 PCPUs, 500µs
// budget slack, the §4 cost constants).
func DefaultConfig(stack Stack) SystemConfig { return core.DefaultConfig(stack) }

// Workloads.
type (
	// RTApp is the rt-app periodic load generator of §4.2.
	RTApp = workload.RTApp
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
)

// NewRTApp registers a periodic rt-app task on g.
func NewRTApp(g *Guest, id int, name string, p Params) (*RTApp, error) {
	return workload.NewRTApp(g, id, name, p)
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

// NewCPUHog registers a background CPU-bound task on g.
func NewCPUHog(g *Guest, id int, name string) (*CPUHog, error) {
	return workload.NewCPUHog(g, id, name)
}

// VideoProfiles reproduces Table 3 of the paper.
func VideoProfiles() []VideoProfile { return workload.VideoProfiles }

// Declarative scenarios (cmd/rtvirt-sim's engine).
type (
	// Scenario is a JSON-describable experiment: a stack, a host, VMs
	// and their tasks.
	Scenario = scenario.Scenario
	// ScenarioVM describes one VM of a scenario.
	ScenarioVM = scenario.VM
	// ScenarioTask describes one task of a scenario VM.
	ScenarioTask = scenario.TaskSpec
	// ScenarioOptions tunes RunScenario (e.g. schedule tracing).
	ScenarioOptions = scenario.Options
	// ScenarioResult is the per-task and host-level outcome.
	ScenarioResult = scenario.Result
)

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
)

// AnalyzeScenario derives per-VCPU interfaces (static RT-Xen and RTVirt
// §3.3 sizing) and host-level admission for a scenario without simulating
// it. The same scenario drives RunScenario.
func AnalyzeScenario(sc Scenario, opt AnalyzeOptions) (HostAnalysis, error) {
	return analyze.Analyze(sc, opt)
}

// TraceRecorder keeps every scheduling event, in order, for rendering a
// window of the schedule.
type TraceRecorder = trace.Recorder

// AttachTracer records sys's scheduling events (dispatches, preemptions,
// completions, misses, hypercalls, migrations, budget transitions) into
// rec. Use rec.Timeline or rec.WriteSVG afterwards; the recorder keeps
// the whole run, so attach it to short runs.
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
	// VMSpec describes a deployable VM.
	VMSpec = cluster.VMSpec
	// ClusterTaskSpec describes one application of a VM deployment.
	ClusterTaskSpec = cluster.TaskSpec
)

// BestFit places each VM on the feasible host with the least remaining
// real-time bandwidth (tightest packing).
const BestFit = cluster.BestFit

// NewCluster builds a multi-host cluster, one simulator per host.
func NewCluster(cfg ClusterConfig) *Cluster { return cluster.NewSharded(cfg) }

// ClusterDefaults returns a 4×4-CPU RTVirt cluster configuration.
func ClusterDefaults() ClusterConfig { return cluster.DefaultShardedConfig() }

// Figure1Result contrasts the motivating example under both stacks.
type Figure1Result = experiments.Figure1Result

// Figure1 runs the motivating example (§2) under both stacks.
func Figure1(seed uint64, duration Duration) Figure1Result {
	return experiments.Figure1(seed, duration)
}
