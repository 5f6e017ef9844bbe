package cluster

import (
	"errors"
	"fmt"
	"strings"

	"rtvirt/internal/clone"
	"rtvirt/internal/core"
	"rtvirt/internal/dist"
	"rtvirt/internal/guest"
	"rtvirt/internal/metrics"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
	"rtvirt/internal/workload"
)

// This file is the cluster engine: a Sharded cluster gives every host its
// own sim.Simulator — its own clock, event queue, and RNG stream — and
// advances them one after another in sim.ShardSet lookahead windows
// (conservative PDES). All cross-host interaction during a window
// (client→server request traffic, planned live-migration handoff,
// post-migration request forwarding) travels through the shard mailbox
// with at least the lookahead of delay, which is what makes the windows
// safe. Between two Run calls every shard clock has settled at the same
// instant, so the control calls of control.go (placement, migration,
// rebalance, host failure) run there and may read and write any host.
//
// Ownership discipline (what makes a window's outcome independent of the
// order its hosts run in): during a window a host's handlers may touch
// only state owned by that host. A deployment is owned by the host it
// resides on; ownership transfers through the migration protocol, whose
// two sides run at least one lookahead apart and are therefore separated
// by a barrier. Agents decide residency from their own local maps — never by
// peeking at another host's state mid-window. The only cross-host reads
// are of state that changes only at barriers: topology (shard pointers,
// agent handler IDs), host failure flags, and handoff epochs.

// ShardedConfig describes a sharded cluster run.
type ShardedConfig struct {
	// Hosts is the number of hosts (= shards); PCPUs their size.
	Hosts int
	PCPUs int
	// Seed fixes the whole run. Host i's simulator is seeded with
	// sim.SplitSeed(Seed, i), so hosts share no stream structure.
	Seed uint64
	// System is the per-host configuration template (stack, costs,
	// slack). Its topology knobs (PCPUs, Seed, SharedSim) stay blank —
	// the cluster owns them, and Validate rejects conflicting values.
	System core.Config
	// Lookahead is the minimum cross-host latency, the floor of every
	// edge the cluster declares to its shard set. Zero selects
	// workload.DefaultNetworkDelay() (19µs, the paper's measured p99.9
	// network delay). Every remote client's delay and the migration
	// downtime must be ≥ Lookahead.
	Lookahead simtime.Duration
	// Policy picks the host for Place, Migrate(name, nil) and failover.
	Policy Policy
	// A migrating VM is dark for MigrationDowntime plus MigrationPerBW per
	// CPU of its spec's bandwidth (the stop-and-copy blackout model).
	MigrationDowntime simtime.Duration
	MigrationPerBW    simtime.Duration
	// RecoveryDelay is how long a crashed host's VMs stay dark (failure
	// detection plus restart) before they resume on a survivor.
	RecoveryDelay simtime.Duration
	// LinkDelay optionally models per-pair network latency: forwarded
	// requests chase a migrated VM at LinkDelay(src, dst) instead of the
	// global Lookahead floor, and the declared migration-pair edges widen
	// to match, so per-edge windows stretch to the topology's real link
	// latencies. Nil charges every forwarded hop exactly Lookahead. The
	// function must be pure (same inputs, same answer) and must never
	// return less than Lookahead; the first undershooting hop panics.
	LinkDelay func(src, dst int) simtime.Duration
}

// DefaultShardedConfig returns a 4-host × 4-CPU RTVirt cluster with
// worst-fit placement, a 50ms+20ms/CPU migration model, a 500ms recovery
// delay and the 19µs network-delay lookahead.
func DefaultShardedConfig() ShardedConfig {
	sys := core.DefaultConfig(core.RTVirt)
	sys.PCPUs = 0
	sys.Seed = 0
	return ShardedConfig{
		Hosts:             4,
		PCPUs:             4,
		Seed:              1,
		System:            sys,
		Lookahead:         workload.DefaultNetworkDelay(),
		Policy:            WorstFit,
		MigrationDowntime: simtime.Millis(50),
		MigrationPerBW:    simtime.Millis(20),
		RecoveryDelay:     simtime.Millis(500),
	}
}

// Validate reports whether the configuration is coherent.
func (cfg ShardedConfig) Validate() error {
	if cfg.Hosts <= 0 {
		return errors.New("cluster: sharded config needs at least one host")
	}
	if cfg.Lookahead <= 0 {
		return errors.New("cluster: sharded config needs a positive lookahead")
	}
	if cfg.MigrationDowntime < cfg.Lookahead {
		return fmt.Errorf("cluster: migration downtime %v below lookahead %v — the handoff would outrun the conservative window",
			cfg.MigrationDowntime, cfg.Lookahead)
	}
	if cfg.RecoveryDelay < 0 {
		return fmt.Errorf("cluster: negative recovery delay %v", cfg.RecoveryDelay)
	}
	if cfg.System.SharedSim != nil {
		return errors.New("cluster: sharded Config.System.SharedSim must be nil; every host gets its own simulator")
	}
	if cfg.System.PCPUs != 0 && cfg.System.PCPUs != cfg.PCPUs {
		return fmt.Errorf("cluster: sharded Config.System.PCPUs (%d) conflicts with Config.PCPUs (%d); leave the template's zero",
			cfg.System.PCPUs, cfg.PCPUs)
	}
	if cfg.System.Seed != 0 {
		return errors.New("cluster: sharded Config.System.Seed must be zero; per-host seeds derive from Config.Seed")
	}
	return nil
}

// Typed kernel-event kinds dispatched to each host's agent.
const (
	// evAgentReq delivers one remote request: Owner is the sending
	// client's index in Sharded.clients, which names the deployment and
	// task, and Arg the sampled CPU demand in ns (0 = declared slice).
	evAgentReq uint16 = iota
	// evAgentMigOut starts a planned live migration on the source host:
	// Owner the deployment, Arg the target host index.
	evAgentMigOut
	// evAgentMigIn ends a migration's blackout on the target: Owner the
	// deployment, Arg the handoff epoch it was sent under.
	evAgentMigIn
	// evAgentFailIn is evAgentMigIn for a failover restart.
	evAgentFailIn
)

// RemoteClient event kinds.
const (
	// evRemoteFire sends the next request toward the deployment's home
	// host and schedules the following fire.
	evRemoteFire uint16 = iota + 16
)

// AgentStats counts one host agent's traffic outcomes. All fields are
// written only by the owning host, so they are exact and deterministic.
type AgentStats struct {
	// Delivered requests released into the resident guest.
	Delivered uint64
	// Forwarded requests that arrived after the VM migrated away and were
	// re-sent to its new host (one extra network hop each).
	Forwarded uint64
	// Dropped requests that arrived during a blackout or found no
	// forwarding address — connection-refused, made visible.
	Dropped uint64
	// Throttled sporadic releases suppressed by the minimum inter-arrival
	// constraint.
	Throttled uint64
	// SkippedMigrations counts planned migrations that fired after the VM
	// had already left (or toward its current or a failed host) and were
	// ignored.
	SkippedMigrations uint64
	// FailedDeploys counts handoffs whose target admission failed; the
	// VM goes Pending until the next barrier re-places it.
	FailedDeploys uint64
}

// hostAgent is the per-host protocol endpoint: it receives mailbox events
// addressed to its host and acts strictly on host-local state.
type hostAgent struct {
	c    *Sharded
	host int
	id   int32

	// resident[id] marks deployment id as currently served by this host.
	resident []bool
	// fwd[id] is the host deployment id migrated to from here, so late
	// requests chase it with one extra hop per move; -1 when it has none.
	// Both slices are indexed by deployment ID and grow on write.
	fwd []int32

	Stats AgentStats
}

// ShardHost is one member of a sharded cluster.
type ShardHost struct {
	Name  string
	Shard *sim.Shard
	Sys   *core.System

	agent *hostAgent
	// failed marks a crashed host (see FailHost). Written only at
	// barriers, so agents may read any host's flag mid-window.
	failed bool
}

// Agent exposes the host's traffic statistics.
func (h *ShardHost) Agent() AgentStats { return h.agent.Stats }

// Failed reports whether the host has crashed (see Sharded.FailHost).
func (h *ShardHost) Failed() bool { return h.failed }

// ReservedBandwidth reports the host's current RT reservations in CPUs.
func (h *ShardHost) ReservedBandwidth() float64 { return h.Sys.AllocatedBandwidth() }

// Capacity reports the host's RT capacity in CPUs.
func (h *ShardHost) Capacity() float64 { return float64(h.Sys.Host.NumPCPUs()) }

// ShardedDeployment is a VM placed on a sharded cluster. Between runs all
// fields are stable to read; during a window only the resident host
// touches them.
type ShardedDeployment struct {
	Spec VMSpec

	id      int32
	hostIdx int
	guest   *guest.OS
	tasks   []*task.Task
	// lat[i] records task i's response times (release → completion),
	// surviving migrations with the deployment.
	lat []metrics.LatencyRecorder
	// ctrl[i] is task i's adaptive controller on the resident host (nil
	// for tasks without an Adaptive spec, and nil as a whole during a
	// blackout — controllers are torn down with the guest and rebuilt
	// fresh on the target).
	ctrl []*guest.AdaptiveController
	// charged is the RT reservation the VM held when it was last torn
	// down: what its handoff must find free on the target.
	charged float64
	// darkSince is the instant of that teardown; landing charges the time
	// since to BlackoutTotal.
	darkSince simtime.Time
	// epoch names the live handoff: FailHost bumps it when it redirects a
	// handoff away from a crashed target, so the stale one is ignored.
	epoch int64

	// Migrations counts completed live migrations, Failovers restarts
	// after a host failure or from Pending.
	Migrations    int
	Failovers     int
	BlackoutTotal simtime.Duration
	migrating     bool
	pending       bool
}

// HostIndex reports the host the deployment resides on (the handoff
// target from the moment the stop-and-copy begins; for a Pending VM, the
// host it was last bound for).
func (d *ShardedDeployment) HostIndex() int { return d.hostIdx }

// Migrating reports whether a blackout with a known target is in flight:
// a migration's stop-and-copy or a failover's recovery delay.
func (d *ShardedDeployment) Migrating() bool { return d.migrating }

// Pending reports whether the VM is dark with no host to go to: its
// handoff found the target full, or a host failure found no room. The
// next barrier re-places it.
func (d *ShardedDeployment) Pending() bool { return d.pending }

// Guest exposes the current guest OS (nil during a blackout).
func (d *ShardedDeployment) Guest() *guest.OS { return d.guest }

// Tasks returns the deployment's tasks.
func (d *ShardedDeployment) Tasks() []*task.Task { return d.tasks }

// Latency returns task i's response-time recorder.
func (d *ShardedDeployment) Latency(i int) *metrics.LatencyRecorder { return &d.lat[i] }

// RemoteClient drives a deployment's task from another host, like the
// paper's TCP clients: its request Source draws gaps and per-request
// demand client-side from the client host's RNG, and each request crosses
// the network (≥ lookahead) through the shard mailbox to the deployment's
// build-time home host.
type RemoteClient struct {
	workload.Source
	Host    int // client host index
	TaskIdx int
	// Delay is the client→server network latency (≥ the cluster
	// lookahead).
	Delay simtime.Duration

	c        *Sharded
	dep      *ShardedDeployment
	homeHost int32
	id       int32
	idx      int32 // position in c.clients, the Owner of its requests
}

// Sharded is a cluster of per-host logical processes under conservative
// windowed synchronization. Build it with NewSharded, place VMs with Place
// (by policy) or Deploy (on an explicit host), attach traffic with
// AddRemoteClient, optionally PlanMigration, then Start and Run. Between
// runs the control calls of control.go move VMs and fail hosts.
type Sharded struct {
	Cfg   ShardedConfig
	Set   *sim.ShardSet
	Hosts []*ShardHost

	deps       []*ShardedDeployment
	byName     map[string]*ShardedDeployment
	clients    []*RemoteClient
	nextTaskID int
	started    bool
}

// NewSharded builds the hosts, one simulator each. It panics on a
// configuration that fails Validate.
func NewSharded(cfg ShardedConfig) *Sharded {
	if cfg.Lookahead == 0 {
		cfg.Lookahead = workload.DefaultNetworkDelay()
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Sharded{Cfg: cfg, Set: sim.NewShardSet(), byName: map[string]*ShardedDeployment{}}
	for i := 0; i < cfg.Hosts; i++ {
		sh := c.Set.NewShard(sim.SplitSeed(cfg.Seed, uint64(i)))
		sysCfg := cfg.System
		sysCfg.PCPUs = cfg.PCPUs
		sysCfg.Seed = 0 // unused: the shard's simulator already exists
		sysCfg.SharedSim = sh.Sim()
		h := &ShardHost{
			Name:  fmt.Sprintf("host%d", i),
			Shard: sh,
			Sys:   core.NewSystem(sysCfg),
			agent: &hostAgent{c: c, host: i},
		}
		h.agent.id = sh.Sim().RegisterHandler(h.agent)
		c.Hosts = append(c.Hosts, h)
	}
	return c
}

// Deployments returns the placed VMs in placement order.
func (c *Sharded) Deployments() []*ShardedDeployment { return c.deps }

// Lookup returns a deployment by VM name.
func (c *Sharded) Lookup(name string) (*ShardedDeployment, bool) {
	d, ok := c.byName[name]
	return d, ok
}

// Deploy admits a VM onto an explicit live host. It is legal before
// Start and at any barrier (between runs); after Start the VM's tasks
// begin at once.
func (c *Sharded) Deploy(host int, spec VMSpec) (*ShardedDeployment, error) {
	c.settle()
	if host < 0 || host >= len(c.Hosts) || c.Hosts[host].failed {
		return nil, fmt.Errorf("cluster: host %d out of range or failed", host)
	}
	d, err := c.newDeployment(spec)
	if err != nil {
		return nil, err
	}
	if err := c.admit(d, host); err != nil {
		return nil, err
	}
	return d, nil
}

// newDeployment builds an unplaced deployment for spec with fresh tasks.
func (c *Sharded) newDeployment(spec VMSpec) (*ShardedDeployment, error) {
	if _, dup := c.byName[spec.Name]; dup {
		return nil, fmt.Errorf("cluster: VM %q already placed", spec.Name)
	}
	d := &ShardedDeployment{Spec: spec, id: int32(len(c.deps))}
	for _, ts := range spec.Tasks {
		var t *task.Task
		if ts.Kind == task.Background {
			t = task.NewBackground(c.nextTaskID, ts.Name)
		} else {
			t = task.New(c.nextTaskID, ts.Name, ts.Kind, ts.Params)
		}
		c.nextTaskID++
		d.tasks = append(d.tasks, t)
	}
	d.lat = make([]metrics.LatencyRecorder, len(d.tasks))
	return d, nil
}

// admit deploys a new VM on host if the host's admission takes it and the
// handoffs in flight toward the host still fit.
func (c *Sharded) admit(d *ShardedDeployment, host int) error {
	if err := c.deployGuest(d, host); err != nil {
		return err
	}
	if c.load(host) > c.Hosts[host].Capacity()+1e-9 {
		c.undeploy(d)
		return fmt.Errorf("%w: host%d's free bandwidth is promised to handoffs in flight", ErrNoHostFits, host)
	}
	c.Hosts[host].agent.setResident(d.id, true)
	c.deps = append(c.deps, d)
	c.byName[d.Spec.Name] = d
	if c.started {
		c.startTasks(d, c.Set.Now())
	}
	return nil
}

// deployGuest creates the guest on the host and registers the
// deployment's tasks, wiring each task's completion callback to the
// deployment-owned latency recorder. Reused task objects keep their
// deadline statistics across migrations. On failure nothing is left on
// the host.
func (c *Sharded) deployGuest(d *ShardedDeployment, host int) error {
	vcpus := d.Spec.VCPUs
	if vcpus <= 0 {
		vcpus = 1
	}
	g, err := c.Hosts[host].Sys.NewGuest(d.Spec.Name, vcpus)
	if err != nil {
		return err
	}
	d.guest = g
	for _, t := range d.tasks {
		if err := g.Register(t); err != nil {
			c.undeploy(d)
			return fmt.Errorf("cluster: admitting %q on host%d: %w", t.Name, host, err)
		}
	}
	d.hostIdx = host
	// Guest teardown drops the callbacks, so every deploy sets them anew.
	for i := range d.tasks {
		rec := &d.lat[i]
		d.tasks[i].OnJobDone = func(j *task.Job) { rec.Add(j.Finish.Sub(j.Release)) }
	}
	for i, ts := range d.Spec.Tasks {
		if ts.Adaptive == nil {
			continue
		}
		ct, err := guest.NewAdaptiveController(g, d.tasks[i], *ts.Adaptive)
		if err != nil {
			c.undeploy(d)
			return fmt.Errorf("cluster: controller for %q on host%d: %w", ts.Name, host, err)
		}
		if d.ctrl == nil {
			d.ctrl = make([]*guest.AdaptiveController, len(d.tasks))
		}
		d.ctrl[i] = ct
	}
	return nil
}

// undeploy destroys the deployment's guest: queued jobs are abandoned
// (visible as misses), reservations released and the VM removed from its
// host. Controllers die with the guest — their stale window timers no-op
// once stopped, and the next deploy builds fresh ones.
func (c *Sharded) undeploy(d *ShardedDeployment) {
	if err := d.guest.Shutdown(); err != nil {
		panic(fmt.Sprintf("cluster: tearing down %q: %v", d.Spec.Name, err))
	}
	for _, ct := range d.ctrl {
		if ct != nil {
			ct.Stop()
		}
	}
	d.ctrl = nil
	d.guest = nil
}

// teardown is the stop-and-copy instant on the VM's current host: the
// guest is destroyed, and the reservation it held is remembered as the
// bandwidth its handoff must find free.
func (c *Sharded) teardown(d *ShardedDeployment, now simtime.Time) {
	d.charged = d.guest.AllocatedBandwidth()
	c.undeploy(d)
	c.Hosts[d.hostIdx].agent.setResident(d.id, false)
	d.darkSince = now
}

// land resumes a dark VM on host at now: it becomes resident there, its
// tasks restart, and the blackout since teardown is charged.
func (c *Sharded) land(d *ShardedDeployment, host int, now simtime.Time) error {
	if err := c.deployGuest(d, host); err != nil {
		return err
	}
	a := c.Hosts[host].agent
	a.setResident(d.id, true)
	a.setForward(d.id, -1)
	d.BlackoutTotal += now.Sub(d.darkSince)
	c.startTasks(d, now)
	return nil
}

// migrationDowntime is the stop-and-copy blackout of d: base plus a term
// proportional to its spec's bandwidth.
func (c *Sharded) migrationDowntime(d *ShardedDeployment) simtime.Duration {
	return c.Cfg.MigrationDowntime +
		simtime.Duration(float64(c.Cfg.MigrationPerBW)*d.Spec.Bandwidth())
}

// migIn is the handoff event that ends d's blackout on host to.
func (c *Sharded) migIn(d *ShardedDeployment, to int, failover bool) sim.Payload {
	kind := evAgentMigIn
	if failover {
		kind = evAgentFailIn
	}
	return sim.Payload{Handler: c.Hosts[to].agent.id, Kind: kind, Owner: d.id, Arg: d.epoch}
}

// Controller returns task i's adaptive controller on the resident host
// (nil without an Adaptive spec or during a blackout).
func (d *ShardedDeployment) Controller(i int) *guest.AdaptiveController {
	if d.ctrl == nil {
		return nil
	}
	return d.ctrl[i]
}

// startTasks begins the deployment's periodic releases (phase-shifted
// from now) and releases one effectively infinite job per background
// task.
func (c *Sharded) startTasks(d *ShardedDeployment, now simtime.Time) {
	for i, ts := range d.Spec.Tasks {
		switch ts.Kind {
		case task.Periodic:
			d.guest.StartPeriodic(d.tasks[i], now.Add(ts.Phase))
		case task.Background:
			d.guest.ReleaseJob(d.tasks[i], simtime.Duration(1<<60))
		}
	}
	for _, ct := range d.ctrl {
		if ct != nil {
			ct.Start(now)
		}
	}
}

// AddRemoteClient attaches a request stream for d.tasks[taskIdx], driven
// from clientHost with Renewal gaps drawn from inter, demand drawn from
// service (nil = the task's declared slice) and a cap of requests (0 =
// unbounded); set Arrivals before Start for a time-varying process. The
// client's network delay must be ≥ the lookahead and the client must sit
// on a different host than the VM's home.
func (c *Sharded) AddRemoteClient(clientHost int, d *ShardedDeployment, taskIdx int,
	delay simtime.Duration, inter dist.Duration, service dist.Duration, requests int) (*RemoteClient, error) {
	if c.started {
		return nil, errors.New("cluster: AddRemoteClient after Start")
	}
	if clientHost < 0 || clientHost >= len(c.Hosts) {
		return nil, fmt.Errorf("cluster: client host %d out of range", clientHost)
	}
	if taskIdx < 0 || taskIdx >= len(d.tasks) {
		return nil, fmt.Errorf("cluster: task index %d out of range for VM %q", taskIdx, d.Spec.Name)
	}
	if delay < c.Cfg.Lookahead {
		return nil, fmt.Errorf("cluster: client delay %v below lookahead %v", delay, c.Cfg.Lookahead)
	}
	if clientHost == d.hostIdx {
		return nil, fmt.Errorf("cluster: client for %q must run on a different host than the VM (it is a *remote* client)", d.Spec.Name)
	}
	if inter == nil {
		return nil, errors.New("cluster: remote client needs an inter-arrival distribution")
	}
	if requests < 0 {
		return nil, fmt.Errorf("cluster: negative request cap %d", requests)
	}
	cl := &RemoteClient{
		Host: clientHost, TaskIdx: taskIdx, Delay: delay,
		c: c, dep: d, homeHost: int32(d.hostIdx), idx: int32(len(c.clients)),
		Source: workload.Source{Arrivals: workload.Renewal{D: inter}, Demand: service, Requests: requests},
	}
	cl.id = c.Hosts[clientHost].Shard.Sim().RegisterHandler(cl)
	c.clients = append(c.clients, cl)
	c.narrowEdge(clientHost, d.hostIdx, delay)
	return cl, nil
}

// PlanMigration schedules a live migration of d to host `to` at the
// absolute instant at. Plans are laid before Start; a plan that fires
// after the VM already moved elsewhere is counted and skipped. The
// (source, target) edge carries both the handoff, at the downtime, and
// the requests forwarded after it, at the link delay.
func (c *Sharded) PlanMigration(at simtime.Time, d *ShardedDeployment, to int) error {
	if c.started {
		return errors.New("cluster: PlanMigration after Start")
	}
	if to < 0 || to >= len(c.Hosts) {
		return fmt.Errorf("cluster: migration target %d out of range", to)
	}
	if to == d.hostIdx {
		return fmt.Errorf("cluster: VM %q already on host%d", d.Spec.Name, to)
	}
	src := c.Hosts[d.hostIdx]
	src.Shard.Sim().PostAt(at, sim.Payload{Handler: src.agent.id,
		Kind: evAgentMigOut, Owner: d.id, Arg: int64(to)})
	c.narrowEdge(d.hostIdx, to, min(c.hopDelay(d.hostIdx, to), c.Cfg.MigrationDowntime))
	return nil
}

// hopDelay is the network latency a forwarded request pays on the
// (from, to) link: Cfg.LinkDelay when configured, the global Lookahead
// floor otherwise. A LinkDelay below the lookahead would let a forward
// outrun the conservative window, so it panics loudly.
func (c *Sharded) hopDelay(from, to int) simtime.Duration {
	if c.Cfg.LinkDelay == nil {
		return c.Cfg.Lookahead
	}
	d := c.Cfg.LinkDelay(from, to)
	if d < c.Cfg.Lookahead {
		panic(fmt.Sprintf("cluster: LinkDelay(%d, %d) = %v below lookahead %v",
			from, to, d, c.Cfg.Lookahead))
	}
	return d
}

// narrowEdge hands the shard set one edge of the cluster's actual
// communication graph, so it can window per edge instead of on the global
// minimum: every cross-shard message travels an edge declared when the
// client, plan or move that sends it is made. A parallel declaration keeps
// the minimum delay per pair.
func (c *Sharded) narrowEdge(from, to int, l simtime.Duration) {
	if cur := c.Set.EdgeLookahead(from, to); cur == 0 || l < cur {
		c.Set.SetEdgeLookahead(from, to, l)
	}
}

// Start dispatches every host and releases the initial workload: periodic
// phases, background jobs, and the remote request streams.
func (c *Sharded) Start() {
	if c.started {
		panic("cluster: Start called twice")
	}
	c.started = true
	for _, h := range c.Hosts {
		h.Sys.Start()
	}
	for _, d := range c.deps {
		c.startTasks(d, 0)
	}
	for _, cl := range c.clients {
		s := c.Hosts[cl.Host].Shard.Sim()
		cl.Open(s.RNG().Split())
		s.PostAt(0, sim.Payload{Handler: cl.id, Kind: evRemoteFire})
	}
}

// Run advances the whole cluster by d. Its start is a barrier: Pending
// VMs are re-placed first. Any further arguments are ignored; they exist
// only so that callers written when Run took an executor group count
// still compile.
func (c *Sharded) Run(d simtime.Duration, _ ...int) {
	c.settle()
	c.Set.RunFor(d)
}

// Finish settles every host's accounting (idle-time attribution etc.)
// after the last Run.
func (c *Sharded) Finish() {
	for _, h := range c.Hosts {
		h.Sys.Host.Sync()
	}
}

// ForkHandler implements sim.Handler. A sharded cluster does not fork.
func (a *hostAgent) ForkHandler(*clone.Ctx) sim.Handler { panic("cluster: not forkable") }

// HandleSimEvent implements sim.Handler for the host agent.
func (a *hostAgent) HandleSimEvent(now simtime.Time, ev sim.Payload) {
	switch ev.Kind {
	case evAgentReq:
		a.request(now, ev)
	case evAgentMigOut:
		a.migrateOut(now, ev)
	case evAgentMigIn, evAgentFailIn:
		a.migrateIn(now, ev)
	default:
		panic(fmt.Sprintf("cluster: unknown agent event kind %d", ev.Kind))
	}
}

// isResident reports whether deployment id is served by this host.
func (a *hostAgent) isResident(id int32) bool {
	return int(id) < len(a.resident) && a.resident[id]
}

// setResident marks or clears deployment id as served by this host.
func (a *hostAgent) setResident(id int32, here bool) {
	for int(id) >= len(a.resident) {
		a.resident = append(a.resident, false)
	}
	a.resident[id] = here
}

// forward reports the host deployment id moved to from here, or -1.
func (a *hostAgent) forward(id int32) int32 {
	if int(id) < len(a.fwd) {
		return a.fwd[id]
	}
	return -1
}

// setForward points deployment id's late requests at host to (-1: none).
func (a *hostAgent) setForward(id, to int32) {
	for int(id) >= len(a.fwd) {
		a.fwd = append(a.fwd, -1)
	}
	a.fwd[id] = to
}

// request delivers (or forwards, or drops) one remote request. The
// sending client names the deployment and task; both are fixed at build
// time, so reading them from another shard's client is safe.
func (a *hostAgent) request(now simtime.Time, ev sim.Payload) {
	cl := a.c.clients[ev.Owner]
	d := cl.dep
	if a.isResident(d.id) {
		if workload.Deliver(d.guest, d.tasks[cl.TaskIdx], simtime.Duration(ev.Arg), now) {
			a.Stats.Delivered++
		} else {
			a.Stats.Throttled++
		}
		return
	}
	if tgt := a.forward(d.id); tgt >= 0 {
		// The VM moved: chase it with one more network hop at the pair's
		// link delay. The payload is re-addressed verbatim, so client and
		// demand survive.
		a.Stats.Forwarded++
		th := a.c.Hosts[tgt]
		ev.Handler = th.agent.id
		a.c.Hosts[a.host].Shard.PostRemote(th.Shard, now.Add(a.c.hopDelay(a.host, int(tgt))), ev)
		return
	}
	// Blackout (stop-and-copy in flight) or a VM that never lived here:
	// connection refused.
	a.Stats.Dropped++
}

// migrateOut is a planned migration's stop-and-copy instant on the source
// host. A plan toward a failed host is skipped like one whose VM left.
func (a *hostAgent) migrateOut(now simtime.Time, ev sim.Payload) {
	d := a.c.deps[ev.Owner]
	target := int(ev.Arg)
	if !a.isResident(d.id) || target == a.host || a.c.Hosts[target].failed {
		a.Stats.SkippedMigrations++
		return
	}
	a.c.teardown(d, now)
	d.migrating = true
	d.hostIdx = target
	a.setForward(d.id, int32(target))
	a.c.Hosts[a.host].Shard.PostRemote(a.c.Hosts[target].Shard,
		now.Add(a.c.migrationDowntime(d)), a.c.migIn(d, target, false))
}

// migrateIn ends a blackout on the target host. A handoff FailHost
// redirected elsewhere is stale and ignored; one the target cannot admit
// (it filled up since the move began) leaves the VM Pending.
func (a *hostAgent) migrateIn(now simtime.Time, ev sim.Payload) {
	d := a.c.deps[ev.Owner]
	if ev.Arg != d.epoch {
		return
	}
	d.migrating = false
	if err := a.c.land(d, a.host, now); err != nil {
		a.Stats.FailedDeploys++
		d.pending = true
		a.setForward(d.id, -1) // a stale forward would bounce requests back
		return
	}
	if ev.Kind == evAgentFailIn {
		d.Failovers++
	} else {
		d.Migrations++
	}
}

// ForkHandler implements sim.Handler. A sharded cluster does not fork.
func (cl *RemoteClient) ForkHandler(*clone.Ctx) sim.Handler { panic("cluster: not forkable") }

// HandleSimEvent implements sim.Handler for the remote client.
func (cl *RemoteClient) HandleSimEvent(now simtime.Time, ev sim.Payload) {
	if ev.Kind != evRemoteFire {
		panic(fmt.Sprintf("cluster: unknown client event kind %d", ev.Kind))
	}
	demand, ok := cl.Send()
	if !ok {
		return
	}
	home := cl.c.Hosts[cl.homeHost]
	mine := cl.c.Hosts[cl.Host].Shard
	mine.PostRemote(home.Shard, now.Add(cl.Delay), sim.Payload{
		Handler: home.agent.id, Kind: evAgentReq,
		Owner: cl.idx, Arg: int64(demand)})
	if gap, ok := cl.Gap(now); ok {
		mine.Sim().PostAfter(gap, sim.Payload{Handler: cl.id, Kind: evRemoteFire})
	}
}

// DigestString renders the cluster's observable end state — per-host
// event counts and traffic stats, per-VM placement, migration and
// blackout totals, per-task deadline statistics and latency counts, and
// per-client send counts — as a deterministic string. Two runs of the
// same configuration produce byte-identical digests, and so do runs split
// into different Run calls, apart from the window count; the golden tests
// and the quickcheck PDES oracle pin exactly that.
func (c *Sharded) DigestString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "events=%d windows=%d now=%d\n", c.Set.EventsFired(), c.Set.Windows(), c.Set.Now())
	for i, h := range c.Hosts {
		st := h.agent.Stats
		fmt.Fprintf(&b, "host%d events=%d clock=%d alloc=%.6f delivered=%d forwarded=%d dropped=%d throttled=%d skipmig=%d faildeploy=%d",
			i, h.Shard.Sim().EventsFired(), int64(h.Shard.Sim().Now()), h.Sys.AllocatedBandwidth(),
			st.Delivered, st.Forwarded, st.Dropped, st.Throttled, st.SkippedMigrations, st.FailedDeploys)
		if h.failed {
			b.WriteString(" failed=true")
		}
		b.WriteByte('\n')
	}
	for _, d := range c.deps {
		fmt.Fprintf(&b, "vm %s host=%d migs=%d blackout=%d migrating=%v dark=%v",
			d.Spec.Name, d.hostIdx, d.Migrations, int64(d.BlackoutTotal), d.migrating, d.guest == nil)
		// Failover fields appear only when set, so digests of worlds
		// without host failures stay byte-identical to the old goldens.
		if d.Failovers != 0 {
			fmt.Fprintf(&b, " failovers=%d", d.Failovers)
		}
		if d.pending {
			b.WriteString(" pending=true")
		}
		b.WriteByte('\n')
		for i, t := range d.tasks {
			st := t.Stats()
			lat := &d.lat[i]
			fmt.Fprintf(&b, "  task %s released=%d judged=%d missed=%d done=%d maxlat=%d\n",
				t.Name, st.Released, st.Judged(), st.Missed, lat.Count(), int64(lat.Max()))
			// Controller lines appear only for adaptive tasks, so digests
			// of controller-free clusters stay byte-identical to the old
			// goldens.
			if ct := d.Controller(i); ct != nil {
				p := t.Params()
				fmt.Fprintf(&b, "  ctrl %s incs=%d decs=%d rejects=%d windows=%d skipped=%d slice=%d\n",
					t.Name, ct.Incs, ct.Decs, ct.Rejects, ct.Windows, ct.Skipped, int64(p.Slice))
			}
		}
	}
	for i, cl := range c.clients {
		fmt.Fprintf(&b, "client%d host=%d vm=%s sent=%d\n", i, cl.Host, cl.dep.Spec.Name, cl.Sent())
	}
	return b.String()
}
