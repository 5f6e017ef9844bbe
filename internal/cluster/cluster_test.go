package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"rtvirt/internal/runner"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

func ms(n int64) simtime.Duration { return simtime.Millis(n) }

func vmSpec(name string, sliceMS, periodMS int64) VMSpec {
	return VMSpec{
		Name:  name,
		VCPUs: 1,
		Tasks: []TaskSpec{{
			Name:   name + "-rta",
			Kind:   task.Periodic,
			Params: task.Params{Slice: ms(sliceMS), Period: ms(periodMS)},
		}},
	}
}

// controlConfig is the 2×4-CPU worst-fit cluster the control-call tests
// start from.
func controlConfig() ShardedConfig {
	cfg := DefaultShardedConfig()
	cfg.Hosts = 2
	return cfg
}

// hostOf returns the host d resides on (or is bound for).
func hostOf(c *Sharded, d *ShardedDeployment) *ShardHost { return c.Hosts[d.HostIndex()] }

func TestPlacementPolicies(t *testing.T) {
	for _, tc := range []struct {
		policy Policy
		// After placing 0.5 on host0, where does the next 0.3 go?
		wantSame bool
	}{
		{FirstFit, true},  // host0 still fits
		{BestFit, true},   // host0 has least free space and fits
		{WorstFit, false}, // host1 has more room
	} {
		cfg := controlConfig()
		cfg.Policy = tc.policy
		c := NewSharded(cfg)
		d1, err := c.Place(vmSpec("a", 20, 10*4)) // 0.5
		if err != nil {
			t.Fatalf("%v: %v", tc.policy, err)
		}
		d2, err := c.Place(vmSpec("b", 12, 40)) // 0.3
		if err != nil {
			t.Fatalf("%v: %v", tc.policy, err)
		}
		same := d1.HostIndex() == d2.HostIndex()
		if same != tc.wantSame {
			t.Errorf("%v: same-host = %v, want %v", tc.policy, same, tc.wantSame)
		}
	}
}

func TestPlaceRejectsWhenFull(t *testing.T) {
	cfg := controlConfig()
	cfg.PCPUs = 1
	c := NewSharded(cfg)
	for i := 0; i < 2; i++ {
		if _, err := c.Place(vmSpec(fmt.Sprintf("big%d", i), 9, 10)); err != nil {
			t.Fatal(err)
		}
	}
	_, err := c.Place(vmSpec("extra", 5, 10))
	if !errors.Is(err, ErrNoHostFits) {
		t.Fatalf("err = %v, want ErrNoHostFits", err)
	}
}

func TestPlacedVMsMeetDeadlines(t *testing.T) {
	c := NewSharded(controlConfig())
	var vms []*ShardedDeployment
	for i := 0; i < 6; i++ {
		d, err := c.Place(vmSpec(fmt.Sprintf("vm%d", i), 4, 10)) // 0.4 each
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, d)
	}
	c.Start()
	c.Run(5 * simtime.Second)
	for _, d := range vms {
		for _, tk := range d.Tasks() {
			if st := tk.Stats(); st.Missed != 0 {
				t.Errorf("%s/%s missed %d", d.Spec.Name, tk.Name, st.Missed)
			}
		}
	}
}

func TestLiveMigration(t *testing.T) {
	cfg := controlConfig()
	cfg.Policy = FirstFit
	c := NewSharded(cfg)
	d, err := c.Place(vmSpec("mover", 4, 10))
	if err != nil {
		t.Fatal(err)
	}
	src := hostOf(c, d)
	c.Start()
	c.Run(2 * simtime.Second)

	target, err := c.Migrate("mover", nil)
	if err != nil {
		t.Fatal(err)
	}
	if target == src {
		t.Fatal("migrated to the source host")
	}
	// During the blackout the VM holds no reservation anywhere.
	if bw := src.ReservedBandwidth(); bw > 0.01 {
		t.Fatalf("source still reserves %.3f during blackout", bw)
	}
	c.Run(2 * simtime.Second)
	if hostOf(c, d) != target || d.Migrations != 1 {
		t.Fatalf("migration not completed: host=%v migrations=%d", hostOf(c, d).Name, d.Migrations)
	}
	if d.BlackoutTotal < cfg.MigrationDowntime {
		t.Fatalf("blackout %v below base downtime", d.BlackoutTotal)
	}
	// The VM runs again on the target: fresh releases complete.
	tk := d.Tasks()[0]
	before := tk.Stats().Completed
	c.Run(simtime.Second)
	if tk.Stats().Completed <= before {
		t.Fatal("no progress after migration")
	}
	// The §6 caveat: the blackout shows up as bounded misses. With a 10ms
	// period and ~58ms downtime, only the in-flight job dies (releases
	// pause during the blackout).
	if miss := tk.Stats().Missed; miss == 0 || miss > 20 {
		t.Fatalf("migration-induced misses = %d, want a small positive count", miss)
	}
}

func TestMigrateErrors(t *testing.T) {
	cfg := controlConfig()
	cfg.PCPUs = 1
	c := NewSharded(cfg)
	if _, err := c.Migrate("ghost", nil); !errors.Is(err, ErrUnknownVM) {
		t.Fatalf("err = %v", err)
	}
	d, err := c.Place(vmSpec("a", 5, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Migrate("a", nil); err == nil {
		t.Fatal("migration before Start accepted")
	}
	// Fill the other host so nothing fits.
	other := c.Hosts[1-d.HostIndex()]
	if _, err := c.Place(vmSpec("blocker", 9, 10)); err != nil {
		t.Fatal(err)
	}
	c.Start()
	if _, err := c.Migrate("a", other); !errors.Is(err, ErrNoHostFits) {
		t.Fatalf("err = %v, want ErrNoHostFits", err)
	}
	if _, err := c.Migrate("a", hostOf(c, d)); err == nil {
		t.Fatal("migrating to the same host accepted")
	}
}

func TestRebalance(t *testing.T) {
	cfg := controlConfig()
	cfg.Policy = BestFit // pack everything onto one host first
	c := NewSharded(cfg)
	for i := 0; i < 4; i++ {
		if _, err := c.Place(vmSpec(fmt.Sprintf("vm%d", i), 8, 10*4)); err != nil { // 0.2 each
			t.Fatal(err)
		}
	}
	h0, h1 := c.Hosts[0], c.Hosts[1]
	if h0.ReservedBandwidth() < 0.8 && h1.ReservedBandwidth() < 0.8 {
		t.Fatalf("best-fit did not consolidate: %.2f / %.2f",
			h0.ReservedBandwidth(), h1.ReservedBandwidth())
	}
	c.Start()
	c.Run(simtime.Second)
	moves := c.Rebalance(0.3)
	if moves == 0 {
		t.Fatal("rebalance made no moves")
	}
	c.Run(simtime.Second) // let blackouts finish
	gap := h0.ReservedBandwidth() - h1.ReservedBandwidth()
	if gap < 0 {
		gap = -gap
	}
	if gap > 0.5 {
		t.Fatalf("still unbalanced: %.2f vs %.2f", h0.ReservedBandwidth(), h1.ReservedBandwidth())
	}
}

func TestPolicyString(t *testing.T) {
	if FirstFit.String() != "first-fit" || BestFit.String() != "best-fit" ||
		WorstFit.String() != "worst-fit" || Policy(9).String() == "" {
		t.Fatal("Policy.String wrong")
	}
}

func TestDuplicatePlacementRejected(t *testing.T) {
	c := NewSharded(controlConfig())
	if _, err := c.Place(vmSpec("dup", 1, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Place(vmSpec("dup", 1, 10)); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

// TestMigrationCleansUpSourceHost: repeated migrations must not leak VCPUs
// or VMs on the source hosts.
func TestMigrationCleansUpSourceHost(t *testing.T) {
	cfg := controlConfig()
	cfg.Policy = FirstFit
	c := NewSharded(cfg)
	if _, err := c.Place(vmSpec("pingpong", 3, 10)); err != nil {
		t.Fatal(err)
	}
	c.Start()
	for i := 0; i < 6; i++ {
		c.Run(simtime.Second)
		if _, err := c.Migrate("pingpong", nil); err != nil {
			t.Fatalf("migration %d: %v", i, err)
		}
		c.Run(simtime.Second)
	}
	for _, h := range c.Hosts {
		vms := len(h.Sys.Host.VMs())
		vcpus := len(h.Sys.Host.VCPUs())
		if vms > 1 || vcpus > 1 {
			t.Fatalf("%s leaks: %d VMs, %d VCPUs after 6 migrations", h.Name, vms, vcpus)
		}
	}
	d, _ := c.Lookup("pingpong")
	if d.Migrations != 6 {
		t.Fatalf("migrations = %d", d.Migrations)
	}
	// The VM still makes progress.
	tk := d.Tasks()[0]
	before := tk.Stats().Completed
	c.Run(simtime.Second)
	if tk.Stats().Completed <= before {
		t.Fatal("no progress after ping-pong migrations")
	}
}

// churnHolds plays one random placement-and-migration churn and reports
// whether it kept every invariant: no host overcommitted, no VM lost, and
// every VM still making progress afterwards.
func churnHolds(t *testing.T, seed uint64) bool {
	rng := sim.NewRNG(seed)
	cfg := controlConfig()
	cfg.Hosts = 2 + rng.Intn(2)
	cfg.PCPUs = 2
	cfg.Seed = seed
	cfg.Policy = Policy(rng.Intn(3))
	c := NewSharded(cfg)
	placed := 0
	for i := 0; i < 6; i++ {
		s := vmSpec(fmt.Sprintf("vm%d", i), 2+rng.Int63n(5), 10+rng.Int63n(20))
		if _, err := c.Place(s); err == nil {
			placed++
		}
	}
	if placed == 0 {
		return true
	}
	c.Start()
	for e := 0; e < 10; e++ {
		c.Run(simtime.Duration(200+rng.Int63n(800)) * simtime.Millisecond)
		names := c.Deployments()
		if len(names) == 0 {
			return false
		}
		d := names[rng.Intn(len(names))]
		_, _ = c.Migrate(d.Spec.Name, nil) // failures are fine
	}
	c.Run(2 * simtime.Second)
	// Invariants.
	for _, h := range c.Hosts {
		if h.ReservedBandwidth() > h.Capacity()+1e-6 {
			t.Logf("seed %d: %s overcommitted %.3f/%.1f", seed, h.Name,
				h.ReservedBandwidth(), h.Capacity())
			return false
		}
	}
	for _, d := range c.Deployments() {
		tk := d.Tasks()[0]
		before := tk.Stats().Completed
		c.Run(simtime.Second)
		if tk.Stats().Completed <= before {
			t.Logf("seed %d: %s stalled after churn", seed, d.Spec.Name)
			return false
		}
	}
	return true
}

// Property: random placement and migration churn never overcommits a host,
// never loses a VM, and every surviving VM keeps making progress.
func TestQuickClusterChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("long property test")
	}
	f := func(seed uint64) bool { return churnHolds(t, seed) }
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestClusterChurnPinnedSeeds replays the two churn seeds that stalled a
// VM for good: placement checked the spec's Σ slice/period against free
// capacity while admission charges the rounded, slack-padded reservation,
// so a migration landed on a host that could not admit it, fell back to
// the same host, and nothing ever retried the VM.
func TestClusterChurnPinnedSeeds(t *testing.T) {
	for _, seed := range []uint64{13537229919823845256, 15640709042947287733} {
		if !churnHolds(t, seed) {
			t.Errorf("seed %d: churn invariant broken", seed)
		}
	}
}

func TestFailHostRecoversVMs(t *testing.T) {
	cfg := controlConfig() // 2×4 CPUs, worst-fit, 500ms recovery
	c := NewSharded(cfg)
	// One VM per host (worst-fit spreads them).
	d1, err := c.Place(vmSpec("a", 2, 10)) // 0.2 CPUs
	if err != nil {
		t.Fatal(err)
	}
	d2, err := c.Place(vmSpec("b", 2, 10))
	if err != nil {
		t.Fatal(err)
	}
	if d1.HostIndex() == d2.HostIndex() {
		t.Fatal("worst-fit co-located the VMs")
	}
	c.Start()
	c.Run(simtime.Seconds(2))

	crashed := hostOf(c, d1)
	survivor := hostOf(c, d2)
	affected := c.FailHost(crashed)
	if len(affected) != 1 || affected[0] != d1 {
		t.Fatalf("affected = %v", affected)
	}
	// The recovery host is picked at the crash; the VM is dark until the
	// recovery delay has passed.
	if !crashed.Failed() || !d1.Migrating() || d1.Guest() != nil || hostOf(c, d1) != survivor {
		t.Fatalf("failure state: host=%v recovering=%v dark=%v bound for %s",
			crashed.Failed(), d1.Migrating(), d1.Guest() == nil, hostOf(c, d1).Name)
	}
	// Failing twice is a no-op.
	if again := c.FailHost(crashed); again != nil {
		t.Fatalf("second FailHost returned %v", again)
	}

	c.Run(simtime.Seconds(2))
	if d1.Migrating() || d1.Pending() || hostOf(c, d1) != survivor {
		t.Fatalf("vm a not recovered: recovering=%v pending=%v host=%v",
			d1.Migrating(), d1.Pending(), hostOf(c, d1).Name)
	}
	if d1.Failovers != 1 || d1.BlackoutTotal != cfg.RecoveryDelay {
		t.Fatalf("failover accounting: failovers=%d blackout=%v", d1.Failovers, d1.BlackoutTotal)
	}
	// The crash cost deadlines (the VM was dark 500ms ≈ 50 periods), but
	// it runs cleanly again on the survivor.
	tk := d1.Tasks()[0]
	missesAfterRecovery := tk.Stats().Missed
	if missesAfterRecovery == 0 {
		t.Fatal("500ms blackout caused no misses")
	}
	c.Run(simtime.Seconds(2))
	if got := tk.Stats().Missed; got != missesAfterRecovery {
		t.Fatalf("still missing after recovery: %d -> %d", missesAfterRecovery, got)
	}
	// The crashed host is empty and excluded from placement.
	if n := len(crashed.Sys.Host.VMs()); n != 0 {
		t.Fatalf("%d VMs left on the crashed host", n)
	}
	// A ~3.8-CPU VM only fits the crashed host's empty capacity; the
	// survivor (≈3.5 CPUs free) cannot take it, so placement must fail.
	probe := VMSpec{Name: "c", VCPUs: 4}
	for i := 0; i < 4; i++ {
		probe.Tasks = append(probe.Tasks, TaskSpec{
			Name: fmt.Sprintf("c-rta%d", i), Kind: task.Periodic,
			Params: task.Params{Slice: ms(19) / 2, Period: ms(10)},
		})
	}
	if _, err := c.Place(probe); err == nil {
		t.Fatal("placement used a failed host")
	}
}

func TestFailHostNoCapacityThenRestore(t *testing.T) {
	cfg := controlConfig()
	cfg.Policy = FirstFit
	c := NewSharded(cfg)
	// heavySpec builds a VM from n 0.9-utilization tasks, each filling
	// most of one VCPU (0.95 reserved with the 500µs slack).
	heavySpec := func(name string, n int) VMSpec {
		s := VMSpec{Name: name, VCPUs: n}
		for i := 0; i < n; i++ {
			s.Tasks = append(s.Tasks, TaskSpec{
				Name: fmt.Sprintf("%s-rta%d", name, i), Kind: task.Periodic,
				Params: task.Params{Slice: ms(9), Period: ms(10)},
			})
		}
		return s
	}
	// host0: the 1.9-CPU victim; host1: 2.85 CPUs of filler, leaving only
	// 1.15 CPUs of surviving capacity — not enough to recover the victim.
	big, err := c.Place(heavySpec("big", 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Place(heavySpec("filler", 3)); err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Run(simtime.Seconds(1))

	h0 := c.Hosts[0]
	c.FailHost(h0)
	c.Run(simtime.Seconds(2)) // the run's barrier finds nowhere to go
	if !big.Pending() {
		t.Fatal("1.9-CPU VM recovered without capacity")
	}

	c.RestoreHost(h0)
	if big.Pending() {
		t.Fatal("restore did not retry the pending VM")
	}
	if hostOf(c, big) != h0 {
		t.Fatalf("recovered on %s", hostOf(c, big).Name)
	}
	if big.Failovers != 1 || big.BlackoutTotal != simtime.Seconds(2) {
		t.Fatalf("pending accounting: failovers=%d blackout=%v, want 1 and the 2s dark",
			big.Failovers, big.BlackoutTotal)
	}
	c.Run(simtime.Seconds(2))
	// Clean run after restoration: misses stop accumulating.
	tk := big.Tasks()[0]
	before := tk.Stats().Missed
	c.Run(simtime.Seconds(1))
	if got := tk.Stats().Missed; got != before {
		t.Fatalf("missing after restore: %d -> %d", before, got)
	}
	// Restoring a live host is a no-op.
	c.RestoreHost(h0)
}

func TestMigrateToHostThatFails(t *testing.T) {
	cfg := controlConfig()
	cfg.Hosts = 3
	c := NewSharded(cfg)
	d, err := c.Place(vmSpec("a", 2, 10))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Run(simtime.Seconds(1))

	src := hostOf(c, d)
	target := c.Hosts[(d.HostIndex()+1)%len(c.Hosts)]
	if _, err := c.Migrate("a", target); err != nil {
		t.Fatal(err)
	}
	// The target dies during the blackout: the VM must fall back to a
	// live host instead of deploying onto the corpse.
	c.FailHost(target)
	c.Run(simtime.Seconds(2))
	if d.Pending() {
		t.Fatal("VM stuck pending despite spare capacity")
	}
	if hostOf(c, d) == target || hostOf(c, d).Failed() {
		t.Fatalf("VM landed on the failed host %s", hostOf(c, d).Name)
	}
	if n := len(src.Sys.Host.VMs()) + len(target.Sys.Host.VMs()); hostOf(c, d) != src && n != 0 {
		t.Fatalf("%d stray VMs on the source and the failed target", n)
	}
	tk := d.Tasks()[0]
	before := tk.Stats().Missed
	c.Run(simtime.Seconds(1))
	if got := tk.Stats().Missed; got != before {
		t.Fatalf("missing after fallback: %d -> %d", before, got)
	}
}

// TestRedirectedHandoffStaysStale restores a crashed migration target
// before the handoff that was heading for it would have landed: the
// redirected VM must land exactly once, on its recovery host, and the
// stale handoff must not resurrect a second copy on the restored host.
func TestRedirectedHandoffStaysStale(t *testing.T) {
	cfg := controlConfig()
	cfg.Hosts = 3
	cfg.MigrationDowntime = ms(300)
	cfg.RecoveryDelay = ms(100)
	c := NewSharded(cfg)
	d, err := c.Place(vmSpec("a", 2, 10))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Run(simtime.Second)
	target := c.Hosts[(d.HostIndex()+1)%len(c.Hosts)]
	if _, err := c.Migrate("a", target); err != nil {
		t.Fatal(err)
	}
	if affected := c.FailHost(target); len(affected) != 1 || affected[0] != d {
		t.Fatalf("affected = %v, want the VM in flight", affected)
	}
	c.Run(ms(150)) // the redirected handoff lands
	c.RestoreHost(target)
	c.Run(simtime.Second) // the stale one comes due
	if n := len(target.Sys.Host.VMs()); n != 0 {
		t.Fatalf("stale handoff deployed %d VMs on the restored target", n)
	}
	vms := 0
	for _, h := range c.Hosts {
		vms += len(h.Sys.Host.VMs())
	}
	if vms != 1 || d.Failovers != 1 || d.Migrations != 0 || d.BlackoutTotal != ms(100) {
		t.Fatalf("want one live copy after one failover and a 100ms blackout: vms=%d failovers=%d migrations=%d blackout=%v",
			vms, d.Failovers, d.Migrations, d.BlackoutTotal)
	}
}

// TestPendingReplacedAtNextBarrier lands a planned migration on a host
// that filled up before the plan fired: the landing fails, the VM goes
// Pending (counted as a failed deploy), and the next Run's barrier
// re-places it on the first host with room.
func TestPendingReplacedAtNextBarrier(t *testing.T) {
	cfg := controlConfig()
	cfg.PCPUs = 1
	c := NewSharded(cfg)
	d, err := c.Deploy(0, vmSpec("mover", 4, 10)) // 0.45 charged
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PlanMigration(simtime.Time(simtime.Second), d, 1); err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Run(simtime.Millis(500))
	if _, err := c.Deploy(1, vmSpec("squatter", 7, 10)); err != nil { // 0.75 charged
		t.Fatal(err)
	}
	c.Run(simtime.Second)
	if !d.Pending() || d.Guest() != nil || c.Hosts[1].Agent().FailedDeploys != 1 {
		t.Fatalf("landing on a full host: pending=%v dark=%v faildeploy=%d",
			d.Pending(), d.Guest() == nil, c.Hosts[1].Agent().FailedDeploys)
	}
	if dig := c.DigestString(); !strings.Contains(dig, "vm mover host=1 migs=0") ||
		!strings.Contains(dig, "pending=true") {
		t.Fatalf("digest does not show the pending VM:\n%s", dig)
	}
	c.Run(simtime.Second)
	if d.Pending() || d.HostIndex() != 0 || d.Failovers != 1 {
		t.Fatalf("not re-placed at the barrier: pending=%v host=%d failovers=%d",
			d.Pending(), d.HostIndex(), d.Failovers)
	}
	tk := d.Tasks()[0]
	before := tk.Stats().Completed
	c.Run(simtime.Second)
	if tk.Stats().Completed <= before {
		t.Fatal("no progress after re-placement")
	}
}

// TestDeployRespectsHandoffsInFlight: bandwidth promised to a handoff in
// flight is not free at a barrier, for Deploy and Place alike.
func TestDeployRespectsHandoffsInFlight(t *testing.T) {
	cfg := controlConfig()
	cfg.PCPUs = 1
	c := NewSharded(cfg)
	if _, err := c.Deploy(0, vmSpec("mover", 4, 10)); err != nil { // 0.45 charged
		t.Fatal(err)
	}
	c.Start()
	c.Run(simtime.Millis(100))
	if _, err := c.Migrate("mover", c.Hosts[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy(1, vmSpec("late", 7, 10)); !errors.Is(err, ErrNoHostFits) { // 0.75 charged
		t.Fatalf("Deploy into a promised host: err = %v, want ErrNoHostFits", err)
	}
	if d, err := c.Place(vmSpec("late", 7, 10)); err != nil || d.HostIndex() != 0 {
		t.Fatalf("Place: err = %v, want host0", err)
	}
	c.Run(simtime.Second)
	for _, h := range c.Hosts {
		if h.ReservedBandwidth() > h.Capacity()+1e-9 {
			t.Fatalf("%s overcommitted: %.3f", h.Name, h.ReservedBandwidth())
		}
	}
}

func TestMigrateRejectsPendingVM(t *testing.T) {
	c := NewSharded(controlConfig())
	d, err := c.Place(vmSpec("a", 2, 10))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Run(simtime.Seconds(1))
	c.FailHost(hostOf(c, d))
	if _, err := c.Migrate("a", nil); !errors.Is(err, ErrMigrating) {
		t.Fatalf("migrating a recovering VM: err = %v", err)
	}
}

// Property: under random crashes, restores and migrations, no VM is ever
// lost — every deployment is either running on a live host, dark on its
// way to one, or explicitly pending — hosts are never overcommitted, and
// once the cluster heals, every VM makes progress again.
func TestQuickFailoverChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("long property test")
	}
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		cfg := controlConfig()
		cfg.Hosts = 3
		cfg.PCPUs = 2
		cfg.Seed = seed
		cfg.Policy = Policy(rng.Intn(3))
		c := NewSharded(cfg)
		for i := 0; i < 5; i++ {
			s := vmSpec(fmt.Sprintf("vm%d", i), 1+rng.Int63n(4), 10+rng.Int63n(20))
			_, _ = c.Place(s) // rejections are fine
		}
		if len(c.Deployments()) == 0 {
			return true
		}
		c.Start()
		for e := 0; e < 12; e++ {
			c.Run(simtime.Duration(100+rng.Int63n(700)) * simtime.Millisecond)
			switch rng.Intn(3) {
			case 0:
				c.FailHost(c.Hosts[rng.Intn(len(c.Hosts))])
			case 1:
				c.RestoreHost(c.Hosts[rng.Intn(len(c.Hosts))])
			case 2:
				ds := c.Deployments()
				d := ds[rng.Intn(len(ds))]
				_, _ = c.Migrate(d.Spec.Name, nil)
			}
			// Standing invariants, checked at every step.
			for _, h := range c.Hosts {
				if h.ReservedBandwidth() > h.Capacity()+1e-6 {
					t.Logf("seed %d: %s overcommitted", seed, h.Name)
					return false
				}
				if h.Failed() && len(h.Sys.Host.VMs()) != 0 {
					t.Logf("seed %d: %d VMs on failed %s", seed,
						len(h.Sys.Host.VMs()), h.Name)
					return false
				}
			}
			for _, d := range c.Deployments() {
				if dark := d.Guest() == nil; dark != (d.Migrating() || d.Pending()) {
					t.Logf("seed %d: %s dark=%v but migrating=%v pending=%v", seed,
						d.Spec.Name, dark, d.Migrating(), d.Pending())
					return false
				}
			}
		}
		// Heal the cluster and let in-flight blackouts drain.
		for _, h := range c.Hosts {
			c.RestoreHost(h)
		}
		c.Run(3 * simtime.Second)
		for _, d := range c.Deployments() {
			if d.Pending() {
				t.Logf("seed %d: %s still pending after full restore", seed, d.Spec.Name)
				return false
			}
			if hostOf(c, d).Failed() {
				t.Logf("seed %d: %s lives on failed %s", seed, d.Spec.Name, hostOf(c, d).Name)
				return false
			}
			tk := d.Tasks()[0]
			before := tk.Stats().Completed
			c.Run(simtime.Second)
			if tk.Stats().Completed <= before {
				t.Logf("seed %d: %s stopped making progress", seed, d.Spec.Name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestClusterDeterminism: identical seeds reproduce identical outcomes
// bit-for-bit, including through migrations, a crash and a recovery.
func TestClusterDeterminism(t *testing.T) {
	run := func() string {
		cfg := controlConfig()
		cfg.Hosts = 3
		cfg.PCPUs = 2
		cfg.Seed = 42
		c := NewSharded(cfg)
		for i := 0; i < 4; i++ {
			if _, err := c.Place(vmSpec(fmt.Sprintf("vm%d", i), 3, 10)); err != nil {
				t.Fatal(err)
			}
		}
		c.Start()
		c.Run(simtime.Second)
		_, _ = c.Migrate("vm1", nil)
		c.Run(simtime.Second)
		c.FailHost(c.Hosts[0])
		c.Run(simtime.Second)
		c.RestoreHost(c.Hosts[0])
		c.Run(simtime.Second)
		c.Finish()
		return c.DigestString()
	}
	a := run()
	if !strings.Contains(a, "failovers=") {
		t.Fatalf("the crash caused no failover:\n%s", a)
	}
	if b := run(); a != b {
		t.Fatalf("non-deterministic cluster run:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
}

// sweepDriver places two VMs by cfg's policy, runs the cluster, and
// returns the per-VM miss counts plus which host each landed on — enough
// state to expose any cross-worker contamination.
func sweepDriver(cfg ShardedConfig) sweepOutcome {
	c := NewSharded(cfg)
	var r sweepOutcome
	for i, spec := range []VMSpec{vmSpec("a", 20, 40), vmSpec("b", 12, 40)} {
		d, err := c.Place(spec)
		if err != nil {
			panic(err)
		}
		r.Hosts[i] = hostOf(c, d).Name
	}
	c.Start()
	c.Run(2 * simtime.Second)
	for i, name := range []string{"a", "b"} {
		d, _ := c.Lookup(name)
		for _, tk := range d.Tasks() {
			r.Missed[i] += tk.Stats().Missed
		}
	}
	return r
}

type sweepOutcome struct {
	Hosts  [2]string
	Missed [2]int
}

// policyConfigs returns one cluster config per placement policy, in
// declaration order.
func policyConfigs() []ShardedConfig {
	var cfgs []ShardedConfig
	for _, p := range []Policy{FirstFit, BestFit, WorstFit} {
		cfg := controlConfig()
		cfg.Policy = p
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// TestSweepParallelDeterminism runs one cluster per placement policy
// sequentially and on eight workers: every cluster owns its clocks, so
// results must match exactly and arrive in input order.
func TestSweepParallelDeterminism(t *testing.T) {
	seq := runner.Map(1, policyConfigs(), sweepDriver)
	par := runner.Map(8, policyConfigs(), sweepDriver)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("sweep differs between 1 and 8 workers:\nseq: %#v\npar: %#v", seq, par)
	}
}

// TestComparePolicies sweeps every placement policy in declaration order
// and checks the policies actually differ: worst-fit spreads where
// first-fit consolidates (cf. TestPlacementPolicies).
func TestComparePolicies(t *testing.T) {
	res := runner.Map(0, policyConfigs(), sweepDriver)
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	if ff := res[0]; ff.Hosts[0] != ff.Hosts[1] {
		t.Errorf("first-fit split the VMs across hosts: %v", ff.Hosts)
	}
	if wf := res[2]; wf.Hosts[0] == wf.Hosts[1] {
		t.Errorf("worst-fit consolidated the VMs: %v", wf.Hosts)
	}
}
