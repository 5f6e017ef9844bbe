package workload

import (
	"rtvirt/internal/clone"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// The workload drivers own the two pieces of state the lower layers refuse
// to clone: the OnJobDone callbacks (task.Clone nils them) and the demand
// functions (guest clones drop them). Each ForkHandler below re-installs
// its callbacks bound to the CLONED recorder, so samples land in the fork's
// metrics and the source run is never touched.

// Fork returns the clone of a (its task and guest were already cloned by
// the layers below); useful for remapping experiment-held references.
func (a *RTApp) Fork(ctx *clone.Ctx) *RTApp {
	if n, ok := ctx.Lookup(a); ok {
		return n.(*RTApp)
	}
	na := &RTApp{Task: task.Clone(ctx, a.Task), Guest: clone.Get(ctx, a.Guest)}
	ctx.Put(a, na)
	return na
}

// ForkHandler implements sim.Handler.
func (c *Client) ForkHandler(ctx *clone.Ctx) sim.Handler {
	if n, ok := ctx.Lookup(c); ok {
		return n.(*Client)
	}
	nc := &Client{
		Source:       c.Source.Clone(),
		Task:         task.Clone(ctx, c.Task),
		Guest:        clone.Get(ctx, c.Guest),
		NetworkDelay: c.NetworkDelay,
		Latency:      c.Latency.Clone(),
		Throttled:    c.Throttled,
		sim:          clone.Get(ctx, c.sim),
		id:           c.id,
	}
	ctx.Put(c, nc)
	nc.Task.OnJobDone = nc.jobDone
	return nc
}

// ForkHandler implements sim.Handler.
func (m *Memcached) ForkHandler(ctx *clone.Ctx) sim.Handler {
	if n, ok := ctx.Lookup(m); ok {
		return n.(*Memcached)
	}
	nm := &Memcached{
		Task:    task.Clone(ctx, m.Task),
		Guest:   clone.Get(ctx, m.Guest),
		Cfg:     m.Cfg,
		Latency: m.Latency.Clone(),
		src:     m.src.Clone(),
		sim:     clone.Get(ctx, m.sim),
		id:      m.id,
	}
	ctx.Put(m, nm)
	nm.Task.OnJobDone = func(j *task.Job) {
		nm.Latency.Add(j.Finish.Sub(j.Release))
	}
	return nm
}

// ForkHandler implements sim.Handler.
func (e *TickEvader) ForkHandler(ctx *clone.Ctx) sim.Handler {
	if n, ok := ctx.Lookup(e); ok {
		return n.(*TickEvader)
	}
	ne := &TickEvader{
		Task:      task.Clone(ctx, e.Task),
		Guest:     clone.Get(ctx, e.Guest),
		Cfg:       e.Cfg,
		Probes:    e.Probes,
		Bursts:    e.Bursts,
		Resyncs:   e.Resyncs,
		BurstWork: e.BurstWork,
		phase:     e.phase,
		period:    e.period,
		nextTick:  e.nextTick,
		spikes:    append([]simtime.Time(nil), e.spikes...),
		sim:       clone.Get(ctx, e.sim),
		id:        e.id,
	}
	ctx.Put(e, ne)
	ne.Task.OnJobDone = ne.jobDone
	return ne
}
