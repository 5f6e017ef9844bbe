package cluster

import (
	"fmt"
	"testing"

	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// headlineCluster is examples/cluster's world: two 2-CPU hosts under
// best-fit placement with four 16ms/40ms streaming VMs placed.
func headlineCluster(tb testing.TB) *Sharded {
	cfg := DefaultShardedConfig()
	cfg.Hosts = 2
	cfg.PCPUs = 2
	cfg.Policy = BestFit
	c := NewSharded(cfg)
	for i := 0; i < 4; i++ {
		if _, err := c.Place(VMSpec{Name: fmt.Sprintf("stream%d", i), VCPUs: 1,
			Tasks: []TaskSpec{{Name: "transcode", Kind: task.Periodic,
				Params: task.Params{Slice: ms(16), Period: ms(40)}}}}); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// TestRebalanceFailoverHeadline pins the §6 headline that examples/cluster
// prints: best-fit packs four 0.4-CPU streams onto host0, Rebalance(0.3)
// makes two live migrations that leave 0.82/0.82 CPUs reserved, each moved
// stream misses exactly one frame to its 58 ms blackout, and after host0
// crashes its two streams fail over to host1 (1.65 CPUs reserved), each
// missing one frame to its 500 ms recovery blackout.
func TestRebalanceFailoverHeadline(t *testing.T) {
	c := headlineCluster(t)
	c.Start()
	c.Run(5 * simtime.Second)
	reserved := func() string {
		return fmt.Sprintf("%.2f/%.2f", c.Hosts[0].ReservedBandwidth(), c.Hosts[1].ReservedBandwidth())
	}
	if got := reserved(); got != "1.65/0.00" {
		t.Fatalf("after best-fit placement reserved %s, want 1.65/0.00", got)
	}
	if moves := c.Rebalance(0.3); moves != 2 {
		t.Fatalf("Rebalance made %d migrations, want 2", moves)
	}
	c.Run(5 * simtime.Second)
	if got := reserved(); got != "0.82/0.82" {
		t.Fatalf("after rebalancing reserved %s, want 0.82/0.82", got)
	}
	type row struct {
		missed, migrations, failovers int
		blackout                      simtime.Duration
	}
	check := func(phase string, want map[string]row) {
		t.Helper()
		for name, w := range want {
			d, _ := c.Lookup(name)
			got := row{d.Tasks()[0].Stats().Missed, d.Migrations, d.Failovers, d.BlackoutTotal}
			if got != w {
				t.Errorf("%s: %s = %+v, want %+v", phase, name, got, w)
			}
		}
	}
	check("after rebalancing", map[string]row{
		"stream0": {1, 1, 0, ms(58)},
		"stream1": {1, 1, 0, ms(58)},
		"stream2": {0, 0, 0, 0},
		"stream3": {0, 0, 0, 0},
	})
	if affected := c.FailHost(c.Hosts[0]); len(affected) != 2 {
		t.Fatalf("crash affected %d VMs, want 2", len(affected))
	}
	c.Run(5 * simtime.Second)
	if got := reserved(); got != "0.00/1.65" {
		t.Fatalf("after failover reserved %s, want 0.00/1.65", got)
	}
	check("after failover", map[string]row{
		"stream0": {1, 1, 0, ms(58)},
		"stream1": {1, 1, 0, ms(58)},
		"stream2": {1, 0, 1, ms(500)},
		"stream3": {1, 0, 1, ms(500)},
	})
}

// BenchmarkRebalanceFailover times examples/cluster's three acts end to
// end — best-fit placement and 5 s of running, Rebalance(0.3) and 5 s,
// a host crash and 5 s of failover — on one executor group.
func BenchmarkRebalanceFailover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := headlineCluster(b)
		c.Start()
		c.Run(5 * simtime.Second)
		c.Rebalance(0.3)
		c.Run(5 * simtime.Second)
		c.FailHost(c.Hosts[0])
		c.Run(5 * simtime.Second)
	}
}
