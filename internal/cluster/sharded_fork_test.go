package cluster

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"rtvirt/internal/check"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
)

// TestShardedForkMidMigration forks the cluster while a migration
// blackout and an injected mailbox message are both in flight, then runs
// the original (3 executor groups) and the fork (1 group) forward and
// requires bit-identical digests and per-host dispatch streams. The
// blackout (40ms downtime starting at 30ms) straddles the 50ms fork
// point: at fork time vm0-0's guest is torn down on host 0 and the
// completion event sits in host 2's queue.
func TestShardedForkMidMigration(t *testing.T) {
	c := buildShardedWith(t, func(cfg *ShardedConfig) {
		cfg.MigrationDowntime = simtime.Millis(40)
		cfg.MigrationPerBW = 0
	}, simtime.Time(0).Add(simtime.Millis(30)))
	c.Start()
	c.Run(simtime.Millis(50), 2)

	d, _ := c.Lookup("vm0-0")
	if !d.Migrating() || d.Guest() != nil {
		t.Fatalf("fork point is not mid-blackout: migrating=%v dark=%v",
			d.Migrating(), d.Guest() == nil)
	}
	// Leave a hand-posted request in host 0's outbox so the fork must
	// deep-copy an undrained mailbox, not just quiescent queues.
	tgt := c.Hosts[1]
	victim := slices.IndexFunc(c.clients, func(cl *RemoteClient) bool { return cl.dep.Spec.Name == "vm1-0" })
	c.Hosts[0].Shard.PostRemote(tgt.Shard,
		c.Hosts[0].Shard.Sim().Now().Add(c.Cfg.Lookahead),
		sim.Payload{Handler: tgt.agent.id, Kind: evAgentReq, Owner: int32(victim)})

	fc, _ := c.Fork()

	// The fork must be materially independent.
	fd, ok := fc.Lookup("vm0-0")
	if !ok || fd == d {
		t.Fatal("fork shares the deployment object with the original")
	}
	if !fd.Migrating() || fd.Migrations != d.Migrations {
		t.Fatalf("fork lost migration state: migrating=%v migs=%d", fd.Migrating(), fd.Migrations)
	}
	for i, cl := range fc.clients {
		if cl.dep == nil {
			t.Fatalf("fork client %d has no deployment (fix-up missed)", i)
		}
		if byName, _ := fc.Lookup(cl.dep.Spec.Name); byName != cl.dep {
			t.Fatalf("fork client %d points at a deployment outside the fork", i)
		}
	}

	// Fresh digests on both sides — the fork starts with a disabled trace
	// bus, so attach after forking, then run the continuations with
	// different group counts.
	origDigs := make([]*check.DispatchDigest, len(c.Hosts))
	forkDigs := make([]*check.DispatchDigest, len(c.Hosts))
	for i := range c.Hosts {
		origDigs[i] = check.NewDispatchDigest()
		forkDigs[i] = check.NewDispatchDigest()
		c.Hosts[i].Sys.Host.TraceTo(origDigs[i])
		fc.Hosts[i].Sys.Host.TraceTo(forkDigs[i])
	}
	c.Run(simtime.Millis(150), 3)
	c.Finish()
	fc.Run(simtime.Millis(150), 1)
	fc.Finish()

	if got, want := fc.DigestString(), c.DigestString(); got != want {
		t.Errorf("fork diverged from original:\n--- original ---\n%s--- fork ---\n%s", want, got)
	}
	for i := range origDigs {
		if !origDigs[i].Equal(forkDigs[i]) {
			t.Errorf("host%d dispatch streams diverged: orig %d events (%016x), fork %d (%016x)",
				i, origDigs[i].Events(), origDigs[i].Sum(), forkDigs[i].Events(), forkDigs[i].Sum())
		}
	}
	// Both continuations must complete the straddled migration.
	if d.Migrations != 1 || fd.Migrations != 1 || d.Migrating() || fd.Migrating() {
		t.Errorf("straddled migration did not complete on both sides: orig migs=%d/%v fork migs=%d/%v",
			d.Migrations, d.Migrating(), fd.Migrations, fd.Migrating())
	}
}

// TestClusterForkDeterminism forks a cluster while a host failure's
// recovery handoffs are still in flight — the fork boundary cuts between
// the crash and the failover — and pins that the forked future is
// bit-identical to the uninterrupted run.
func TestClusterForkDeterminism(t *testing.T) {
	build := func() *Sharded {
		cfg := DefaultShardedConfig()
		cfg.Hosts = 3
		cfg.PCPUs = 2
		cfg.Seed = 5
		c := NewSharded(cfg)
		for i := 0; i < 4; i++ {
			if _, err := c.Place(vmSpec(fmt.Sprintf("vm%d", i), 2, 10+int64(i)*5)); err != nil {
				t.Fatalf("place vm%d: %v", i, err)
			}
		}
		c.Start()
		c.Run(simtime.Second, 1)
		d, _ := c.Lookup("vm0")
		if affected := c.FailHost(c.Hosts[d.HostIndex()]); len(affected) == 0 {
			t.Fatal("failing vm0's host affected no deployments")
		}
		// 100ms into the 500ms RecoveryDelay: the recovery handoffs are
		// pending kernel events that any fork must carry across.
		c.Run(100*simtime.Millisecond, 1)
		return c
	}

	cold := build()
	cold.Run(2*simtime.Second, 1)
	want := cold.DigestString()

	base := build()
	fc, _ := base.Fork()
	fc.Run(2*simtime.Second, 2)
	if got := fc.DigestString(); got != want {
		t.Fatalf("forked cluster diverges from cold run:\n--- fork ---\n%s--- cold ---\n%s", got, want)
	}
	if !strings.Contains(want, "failovers=1") {
		t.Fatalf("no failovers happened — the recovery handoffs never crossed the fork:\n%s", want)
	}
	if now := base.Set.Now(); now != simtime.Time(simtime.Second+100*simtime.Millisecond) {
		t.Errorf("base cluster advanced to %v by running its fork", now)
	}
}
