package cluster

import (
	"slices"

	"rtvirt/internal/clone"
	"rtvirt/internal/guest"
	"rtvirt/internal/metrics"
	"rtvirt/internal/sim"
	"rtvirt/internal/task"
)

// Fork deep-copies the sharded cluster — every host's simulator and
// failure flag, the in-flight mailbox messages, every deployment
// (including mid-migration, recovering and Pending ones whose guest is
// torn down and whose handoff event sits in the target host's queue),
// agents' residency/forwarding state, and the remote clients — into an
// independent replica. Both continuations replay bit-identically under any
// executor group count.
func (c *Sharded) Fork() (*Sharded, *clone.Ctx) {
	ctx := clone.New()
	nc := &Sharded{
		Cfg:        c.Cfg,
		nextTaskID: c.nextTaskID,
		started:    c.started,
		byName:     make(map[string]*ShardedDeployment, len(c.byName)),
	}
	ctx.Put(c, nc)
	nc.Set = c.Set.Fork(ctx)
	nc.Hosts = make([]*ShardHost, len(c.Hosts))
	for i, h := range c.Hosts {
		nc.Hosts[i] = &ShardHost{
			Name:   h.Name,
			Shard:  clone.Get(ctx, h.Shard),
			Sys:    h.Sys.ForkWith(ctx),
			agent:  clone.Get(ctx, h.agent),
			failed: h.failed,
		}
	}
	for _, d := range c.deps {
		nd := cloneShardedDeployment(ctx, d)
		nc.deps = append(nc.deps, nd)
		nc.byName[nd.Spec.Name] = nd
	}
	// Client handlers cloned during the per-sim fork left their deployment
	// references unresolved: a client's target VM lives on another host,
	// whose simulator may not have been forked yet at that point. All sims
	// exist now, so resolve them.
	for _, cl := range c.clients {
		ncl := clone.Get(ctx, cl)
		ncl.dep = cloneShardedDeployment(ctx, cl.dep)
		nc.clients = append(nc.clients, ncl)
	}
	return nc, ctx
}

// ForkHandler implements sim.Handler. Agents only reference host-local
// state and the cluster wrapper (already memoized by Fork), so the clone
// is self-contained whichever sim forks first.
func (a *hostAgent) ForkHandler(ctx *clone.Ctx) sim.Handler {
	if n, ok := ctx.Lookup(a); ok {
		return n.(*hostAgent)
	}
	na := &hostAgent{
		c:        clone.Get(ctx, a.c),
		host:     a.host,
		id:       a.id,
		Stats:    a.Stats,
		resident: slices.Clone(a.resident),
		fwd:      slices.Clone(a.fwd),
	}
	ctx.Put(a, na)
	return na
}

// ForkHandler implements sim.Handler. The deployment reference stays nil
// here — its guest lives on a foreign simulator that may not be forked
// yet — and is resolved by Sharded.Fork once every shard exists.
func (cl *RemoteClient) ForkHandler(ctx *clone.Ctx) sim.Handler {
	if n, ok := ctx.Lookup(cl); ok {
		return n.(*RemoteClient)
	}
	ncl := &RemoteClient{
		Source:   cl.Source.Clone(),
		Host:     cl.Host,
		TaskIdx:  cl.TaskIdx,
		Delay:    cl.Delay,
		c:        clone.Get(ctx, cl.c),
		homeHost: cl.homeHost,
		id:       cl.id,
		idx:      cl.idx,
	}
	ctx.Put(cl, ncl)
	return ncl
}

// cloneShardedDeployment deep-copies a deployment. Memo-aware: a live
// guest was already cloned with its host's simulator; a torn-down one
// (mid-migration) is cloned here so its task statistics survive. Tasks
// lose their completion callbacks in task.Clone, so the clone re-wires
// them onto its own recorders.
func cloneShardedDeployment(ctx *clone.Ctx, d *ShardedDeployment) *ShardedDeployment {
	if n, ok := ctx.Lookup(d); ok {
		return n.(*ShardedDeployment)
	}
	nd := &ShardedDeployment{
		Spec:          d.Spec,
		id:            d.id,
		hostIdx:       d.hostIdx,
		charged:       d.charged,
		darkSince:     d.darkSince,
		epoch:         d.epoch,
		Migrations:    d.Migrations,
		Failovers:     d.Failovers,
		BlackoutTotal: d.BlackoutTotal,
		migrating:     d.migrating,
		pending:       d.pending,
	}
	ctx.Put(d, nd)
	if d.guest != nil {
		nd.guest = d.guest.ForkDriver(ctx).(*guest.OS)
	}
	nd.tasks = make([]*task.Task, len(d.tasks))
	for i, t := range d.tasks {
		nd.tasks[i] = task.Clone(ctx, t)
	}
	nd.lat = make([]metrics.LatencyRecorder, len(d.lat))
	for i := range d.lat {
		nd.lat[i] = d.lat[i].Clone()
	}
	nd.wireStats()
	if d.ctrl != nil {
		nd.ctrl = make([]*guest.AdaptiveController, len(d.ctrl))
		for i, ct := range d.ctrl {
			if ct != nil {
				nd.ctrl[i] = ct.ForkHandler(ctx).(*guest.AdaptiveController)
			}
		}
	}
	return nd
}
