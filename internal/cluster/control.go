package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"rtvirt/internal/simtime"
)

// This file holds the cluster's control calls: placement, live migration,
// rebalancing, and host failure and restore. Each runs at a barrier —
// before Start or between two Run calls, when every shard clock has
// settled at the same instant and every event at or before it has fired —
// so it may read and write any host's state, and each first re-places
// Pending VMs. A move tears the VM down at once and posts its landing
// straight into the target shard's queue, which needs no mailbox edge.

// settle re-places every Pending VM on the first live host, in policy
// order, that admits it; one that fits nowhere stays Pending.
func (c *Sharded) settle() {
	for _, d := range c.deps {
		if !d.pending {
			continue
		}
		for _, h := range c.candidates(d.charged, -1) {
			from := d.hostIdx
			if err := c.land(d, h, c.Set.Now()); err != nil {
				continue
			}
			c.forward(d, from, h)
			d.pending = false
			d.Failovers++
			break
		}
	}
}

// load is host i's reserved bandwidth plus the charged bandwidth of the
// handoffs in flight toward it, so placement and rebalancing don't
// oscillate during blackouts.
func (c *Sharded) load(i int) float64 {
	l := c.Hosts[i].ReservedBandwidth()
	for _, d := range c.deps {
		if d.migrating && d.hostIdx == i {
			l += d.charged
		}
	}
	return l
}

// candidates lists the live hosts other than skip with at least bw CPUs
// free, in the policy's order of preference (ties by host index).
func (c *Sharded) candidates(bw float64, skip int) []int {
	var hosts []int
	free := make([]float64, len(c.Hosts))
	for i, h := range c.Hosts {
		free[i] = h.Capacity() - c.load(i)
		if i != skip && !h.failed && free[i]+1e-9 >= bw {
			hosts = append(hosts, i)
		}
	}
	switch c.Cfg.Policy {
	case BestFit:
		slices.SortStableFunc(hosts, func(a, b int) int { return cmp.Compare(free[a], free[b]) })
	case WorstFit:
		slices.SortStableFunc(hosts, func(a, b int) int { return cmp.Compare(free[b], free[a]) })
	}
	return hosts
}

// Place admits a VM onto a host chosen by the policy. The spec's
// bandwidth estimate shortlists the hosts; each is then tried in policy
// order with a real admission, which charges the rounded, slack-padded
// reservation. Legal before Start and at any barrier.
func (c *Sharded) Place(spec VMSpec) (*ShardedDeployment, error) {
	c.settle()
	d, err := c.newDeployment(spec)
	if err != nil {
		return nil, err
	}
	bw := spec.Bandwidth()
	for _, h := range c.candidates(bw, -1) {
		if c.admit(d, h) == nil {
			return d, nil
		}
	}
	return nil, fmt.Errorf("%w: %q needs at least %.3f CPUs", ErrNoHostFits, spec.Name, bw)
}

// Migrate live-migrates a VM to target (nil = pick by policy) at the
// current barrier: the VM stops on its host now, is dark for the
// stop-and-copy downtime, and resumes on the target. Jobs in flight at
// the stop are abandoned (they count as misses — the §6 overhead made
// visible). It returns the target.
func (c *Sharded) Migrate(name string, target *ShardHost) (*ShardHost, error) {
	d, ok := c.byName[name]
	if !ok {
		return nil, ErrUnknownVM
	}
	if !c.started {
		return nil, errors.New("cluster: Migrate before Start")
	}
	c.settle()
	if d.migrating || d.pending {
		return nil, ErrMigrating
	}
	bw := d.guest.AllocatedBandwidth()
	cs := c.candidates(bw, d.hostIdx)
	if target != nil {
		cs = slices.DeleteFunc(cs, func(i int) bool { return c.Hosts[i] != target })
	}
	if len(cs) == 0 {
		return nil, fmt.Errorf("%w: %q needs %.3f CPUs on a live host other than %s",
			ErrNoHostFits, name, bw, c.Hosts[d.hostIdx].Name)
	}
	from, now := d.hostIdx, c.Set.Now()
	c.teardown(d, now)
	c.send(d, from, cs[0], now.Add(c.migrationDowntime(d)), false)
	return c.Hosts[cs[0]], nil
}

// send starts d's handoff from host from to host to, landing at at.
func (c *Sharded) send(d *ShardedDeployment, from, to int, at simtime.Time, failover bool) {
	d.migrating = true
	d.hostIdx = to
	c.forward(d, from, to)
	c.Hosts[to].Shard.Sim().PostAt(at, c.migIn(d, to, failover))
}

// forward points host from's agent at d's new host, so requests that
// still arrive there chase it, and declares the edge they take. Only a VM
// with remote clients receives requests, so only it needs the edge.
func (c *Sharded) forward(d *ShardedDeployment, from, to int) {
	if from == to {
		return
	}
	c.Hosts[from].agent.setForward(d.id, int32(to))
	if slices.ContainsFunc(c.clients, func(cl *RemoteClient) bool { return cl.dep == d }) {
		c.narrowEdge(from, to, c.hopDelay(from, to))
	}
}

// Rebalance migrates VMs from the most- to the least-loaded live host
// until the reserved-bandwidth spread is within tolerance CPUs, and
// reports how many migrations it started (none before Start).
func (c *Sharded) Rebalance(tolerance float64) int {
	c.settle()
	moves := 0
	for iter := 0; iter <= len(c.deps); iter++ {
		hi, lo := -1, -1
		for i, h := range c.Hosts {
			if h.failed {
				continue
			}
			if hi < 0 || c.load(i) > c.load(hi) {
				hi = i
			}
			if lo < 0 || c.load(i) < c.load(lo) {
				lo = i
			}
		}
		if hi == lo {
			break
		}
		gap := c.load(hi) - c.load(lo)
		if gap <= tolerance {
			break
		}
		// Move the largest VM on hi that still shrinks the gap.
		var pick *ShardedDeployment
		var pickBW float64
		for _, d := range c.deps {
			if d.hostIdx != hi || d.migrating || d.pending {
				continue
			}
			if bw := d.guest.AllocatedBandwidth(); bw < gap && (pick == nil || bw > pickBW) {
				pick, pickBW = d, bw
			}
		}
		if pick == nil {
			break
		}
		if _, err := c.Migrate(pick.Spec.Name, c.Hosts[lo]); err != nil {
			break
		}
		moves++
	}
	return moves
}

// FailHost crashes a host at the current barrier: every VM on it goes
// dark at once (in-flight and queued jobs are abandoned — visible as
// deadline misses), and the host stops taking placements. Each victim's
// recovery host is picked now by the policy; the VM resumes there after
// Cfg.RecoveryDelay, and the crashed host's agent forwards its requests
// there meanwhile. A handoff that was heading for the crashed host is
// redirected the same way. A VM that fits nowhere goes Pending. The
// affected deployments are returned; failing a failed host is a no-op.
func (c *Sharded) FailHost(h *ShardHost) []*ShardedDeployment {
	if !c.started {
		panic("cluster: FailHost before Start")
	}
	c.settle()
	if h.failed {
		return nil
	}
	h.failed = true
	i := h.agent.host
	now := c.Set.Now()
	var affected []*ShardedDeployment
	for _, d := range c.deps {
		if d.hostIdx != i || d.pending {
			continue
		}
		if d.migrating {
			d.epoch++ // the handoff already in i's queue goes stale
			d.migrating = false
		} else {
			c.teardown(d, now)
		}
		affected = append(affected, d)
		if cs := c.candidates(d.charged, -1); len(cs) > 0 {
			c.send(d, i, cs[0], now.Add(c.Cfg.RecoveryDelay), true)
		} else {
			d.pending = true
			h.agent.setForward(d.id, -1)
		}
	}
	return affected
}

// RestoreHost brings a failed host back, empty — its VMs restarted
// elsewhere or are still Pending — and re-places every Pending VM against
// the recovered capacity. Restoring a live host only settles.
func (c *Sharded) RestoreHost(h *ShardHost) {
	h.failed = false
	c.settle()
}
