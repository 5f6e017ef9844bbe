package cluster

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtvirt/internal/check"
	"rtvirt/internal/dist"
	"rtvirt/internal/hv"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// buildSharded assembles the golden-test world: 4 hosts, 8 VMs mixing
// periodic, sporadic (client-driven), and background load, a remote
// client per VM on a neighboring host, two live migrations, and one
// migration plan that fires after its VM already left.
func buildSharded(t *testing.T) *Sharded {
	t.Helper()
	return buildShardedWith(t, func(cfg *ShardedConfig) {
		cfg.MigrationDowntime = simtime.Millis(10)
		cfg.MigrationPerBW = simtime.Millis(5)
	}, simtime.Time(0).Add(simtime.Millis(40)))
}

// buildShardedWith is buildSharded with a config hook and a movable
// instant for the first migration.
func buildShardedWith(t *testing.T, mutate func(*ShardedConfig), firstMigAt simtime.Time) *Sharded {
	t.Helper()
	cfg := DefaultShardedConfig()
	mutate(&cfg)
	c := NewSharded(cfg)
	for h := 0; h < cfg.Hosts; h++ {
		for v := 0; v < 2; v++ {
			spec := VMSpec{
				Name:  fmt.Sprintf("vm%d-%d", h, v),
				VCPUs: 2,
				Tasks: []TaskSpec{
					{Name: "rt", Kind: task.Periodic,
						Params: task.Params{Slice: simtime.Micros(300), Period: simtime.Millis(4)},
						Phase:  simtime.Micros(int64(100 * (h + v)))},
					{Name: "srv", Kind: task.Sporadic,
						Params: task.Params{Slice: simtime.Micros(200), Period: simtime.Millis(1)}},
					{Name: "bg", Kind: task.Background},
				},
			}
			d, err := c.Deploy(h, spec)
			if err != nil {
				t.Fatalf("deploy %s: %v", spec.Name, err)
			}
			// Heterogeneous link delays: every client edge gets its own
			// latency, so the per-edge window bounds differ per host pair.
			_, err = c.AddRemoteClient((h+1)%cfg.Hosts, d, 1,
				cfg.Lookahead+simtime.Micros(int64(3*v+150*h)),
				dist.Uniform{Lo: simtime.Micros(400), Hi: simtime.Millis(2)},
				dist.Uniform{Lo: simtime.Micros(60), Hi: simtime.Micros(180)}, 0)
			if err != nil {
				t.Fatalf("client for %s: %v", spec.Name, err)
			}
		}
	}
	mustPlan := func(at simtime.Time, name string, to int) {
		t.Helper()
		d, ok := c.Lookup(name)
		if !ok {
			t.Fatalf("no VM %q", name)
		}
		if err := c.PlanMigration(at, d, to); err != nil {
			t.Fatalf("plan %s -> host%d: %v", name, to, err)
		}
	}
	mustPlan(firstMigAt, "vm0-0", 2)
	mustPlan(simtime.Time(0).Add(simtime.Millis(90)), "vm1-1", 3)
	// Fires at 120ms on host 0, long after vm0-0 moved to host 2: the
	// source agent must count it as skipped, deterministically.
	mustPlan(simtime.Time(0).Add(simtime.Millis(120)), "vm0-0", 1)
	return c
}

// buildShardedCalibrated is buildSharded under the distribution-valued
// calibrated cost model. Each host draws its cost noise from its own
// simulator's stream.
func buildShardedCalibrated(t *testing.T) *Sharded {
	t.Helper()
	return buildShardedWith(t, func(cfg *ShardedConfig) {
		cfg.MigrationDowntime = simtime.Millis(10)
		cfg.MigrationPerBW = simtime.Millis(5)
		cfg.System.Costs = hv.CalibratedCosts()
	}, simtime.Time(0).Add(simtime.Millis(40)))
}

type shardedRun struct {
	digest string
	disp   []uint64
	c      *Sharded
}

// runSharded advances c, one Run call per chunk with no control call
// between them, recording each host's dispatch stream.
func runSharded(t *testing.T, c *Sharded, chunks ...simtime.Duration) shardedRun {
	t.Helper()
	digs := make([]*check.DispatchDigest, len(c.Hosts))
	for i, h := range c.Hosts {
		digs[i] = check.NewDispatchDigest()
		h.Sys.Host.TraceTo(digs[i])
	}
	c.Start()
	for _, d := range chunks {
		c.Run(d)
	}
	c.Finish()
	sums := make([]uint64, len(digs))
	for i, d := range digs {
		sums[i] = d.Sum()
	}
	return shardedRun{digest: c.DigestString(), disp: sums, c: c}
}

// checkGolden compares a run's record — its full cluster digest, then one
// line per host's dispatch digest — with testdata/<file>, rewriting the
// file when -update is set. The records were taken when the engine still
// had executor groups, and every group count produced them.
func checkGolden(t *testing.T, file string, r shardedRun) {
	t.Helper()
	var b strings.Builder
	b.WriteString(r.digest)
	for i, d := range r.disp {
		fmt.Fprintf(&b, "dispatch host%d %016x\n", i, d)
	}
	got := []byte(b.String())
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("run differs from %s (run with -update after an intended change):\n--- got ---\n%s--- want ---\n%s",
			path, got, want)
	}
}

// TestShardedGroupInvariance is the determinism golden: the cluster
// digest and per-host dispatch streams of buildSharded over 300ms must
// match testdata/sharded-300ms.txt byte for byte. That record was taken
// when the engine still ran on 1, 2, 4 or 8 executor groups, all of which
// produced it. The subtest is named after the event queue the golden runs
// on, the 4-ary heap.
func TestShardedGroupInvariance(t *testing.T) {
	t.Run("heap", shardedGroupInvariance)
}

func shardedGroupInvariance(t *testing.T) {
	span := simtime.Millis(300)
	base := runSharded(t, buildSharded(t), span)
	// The golden world must actually exercise the machinery.
	var delivered, forwarded, skipped uint64
	for _, h := range base.c.Hosts {
		delivered += h.Agent().Delivered
		forwarded += h.Agent().Forwarded
		skipped += h.Agent().SkippedMigrations
	}
	if delivered == 0 || forwarded == 0 {
		t.Fatalf("degenerate world: delivered=%d forwarded=%d", delivered, forwarded)
	}
	if skipped != 1 {
		t.Fatalf("want exactly 1 skipped migration plan, got %d", skipped)
	}
	if d, _ := base.c.Lookup("vm0-0"); d.Migrations != 1 || d.HostIndex() != 2 {
		t.Fatalf("vm0-0 should have completed one migration to host2: migs=%d host=%d",
			d.Migrations, d.HostIndex())
	}
	checkGolden(t, "sharded-300ms.txt", base)
}

// TestShardedGroupInvarianceNoisyCosts re-runs the determinism golden
// under the distribution-valued calibrated cost model, against
// testdata/sharded-calibrated-200ms.txt. Each shard derives its own cost
// stream from its own simulator seed, never from a shared stream. The
// noisy world must also differ from the constant-cost world, or the test
// is vacuous.
func TestShardedGroupInvarianceNoisyCosts(t *testing.T) {
	span := simtime.Millis(200)
	noisy := runSharded(t, buildShardedCalibrated(t), span)
	checkGolden(t, "sharded-calibrated-200ms.txt", noisy)
	if runSharded(t, buildSharded(t), span).digest == noisy.digest {
		t.Error("calibrated-cost digest matches constant-cost digest — noise not applied")
	}
}

// stripWindowCount removes the window counter from a cluster digest's
// header line, leaving everything observable about the simulation itself.
// Per-edge and global windowing legitimately differ only in how many
// synchronization rounds they took.
func stripWindowCount(t *testing.T, digest string) string {
	t.Helper()
	head, rest, ok := strings.Cut(digest, "\n")
	if !ok {
		t.Fatalf("malformed digest %q", digest)
	}
	fields := strings.Fields(head)
	if len(fields) != 3 || !strings.HasPrefix(fields[1], "windows=") {
		t.Fatalf("malformed digest header %q", head)
	}
	return fields[0] + " " + fields[2] + "\n" + rest
}

// declareGlobalWindows declares every host pair at the cluster's
// Lookahead: the complete graph, whose walk distances are the lookahead
// between hosts and twice it around a cycle — classic global windows.
// Every edge the cluster declares itself has at least that lookahead, and
// a parallel declaration keeps the minimum, so the complete graph stays
// in force whatever the world declares afterwards. It is the reference
// the per-edge window counts are measured against.
func declareGlobalWindows(c *Sharded) {
	for from := range c.Hosts {
		for to := range c.Hosts {
			if from != to {
				c.Set.SetEdgeLookahead(from, to, c.Cfg.Lookahead)
			}
		}
	}
}

// TestShardedPerEdgeVsGlobalWindows runs the same heterogeneous world
// once windowed on the edges the cluster declares and once on the
// complete graph at the global Lookahead (declareGlobalWindows), and
// checks the two are identical in every observable except the window
// count — which the declared topology must cut substantially.
func TestShardedPerEdgeVsGlobalWindows(t *testing.T) {
	span := simtime.Millis(300)
	run := func(global bool) *Sharded {
		c := buildShardedWith(t, func(cfg *ShardedConfig) {
			cfg.MigrationDowntime = simtime.Millis(10)
			cfg.MigrationPerBW = simtime.Millis(5)
		}, simtime.Time(0).Add(simtime.Millis(40)))
		if global {
			declareGlobalWindows(c)
		}
		c.Start()
		c.Run(span)
		c.Finish()
		return c
	}
	perEdge, global := run(false), run(true)
	pd, gd := perEdge.DigestString(), global.DigestString()
	if stripWindowCount(t, pd) != stripWindowCount(t, gd) {
		t.Errorf("windowing modes diverged beyond the window count:\n--- per-edge ---\n%s--- global ---\n%s", pd, gd)
	}
	pw, gw := perEdge.Set.Windows(), global.Set.Windows()
	// The fixture's ring has one 19µs edge, so the bound still crawls
	// there; 1.5× is what this topology honestly yields (the big ratios
	// need genuinely slow links — see TestShardedRackWorld).
	if pw*3 > gw*2 {
		t.Errorf("per-edge windows %d vs global %d — want at least a 1.5× reduction", pw, gw)
	}
	t.Logf("windows: per-edge %d, global %d (%.1fx)", pw, gw, float64(gw)/float64(pw))
}

// rackSize groups the rack world's hosts; a client's link delay to a
// cache depends only on the distance between their racks (120/180/260 µs
// for same/adjacent/distant racks). rackHosts is the size the test runs:
// a single rack, so every link takes the 120 µs same-rack delay, while
// the 64-host version of the world spans eight racks.
const (
	rackSize  = 8
	rackHosts = 8
)

func rackLinkDelay(src, dst int) simtime.Duration {
	switch d := src/rackSize - dst/rackSize; {
	case d == 0:
		return simtime.Micros(120)
	case d == 1 || d == -1:
		return simtime.Micros(180)
	default:
		return simtime.Micros(260)
	}
}

// buildRackWorld assembles the memcached-style rack cluster that
// cmd/rtvirt-perf's cluster64 workloads run at 64 hosts: every host
// serves two cache VMs (a sporadic server, a periodic RT task and a
// background hog), each fed by clients on hosts h+1 and h+2 at the
// rack-distance link delay, and one planned migration per host but the
// last ripples through the ring. With globalWindows it windows on the
// complete graph (declareGlobalWindows).
func buildRackWorld(t *testing.T, globalWindows bool) *Sharded {
	t.Helper()
	const hosts = rackHosts
	cfg := DefaultShardedConfig()
	cfg.Hosts = hosts
	cfg.PCPUs = 4
	cfg.Seed = 1
	cfg.LinkDelay = rackLinkDelay
	c := NewSharded(cfg)
	if globalWindows {
		declareGlobalWindows(c)
	}
	for h := 0; h < hosts; h++ {
		for v := 0; v < 2; v++ {
			spec := VMSpec{
				Name:  fmt.Sprintf("cache%d-%d", h, v),
				VCPUs: 2,
				Tasks: []TaskSpec{
					{Name: "memc", Kind: task.Sporadic,
						Params: task.Params{Slice: simtime.Micros(60), Period: simtime.Micros(200)}},
					{Name: "rt", Kind: task.Periodic,
						Params: task.Params{Slice: simtime.Micros(300), Period: simtime.Millis(5)},
						Phase:  simtime.Micros(int64(37 * (h + v)))},
					{Name: "bg", Kind: task.Background},
				},
			}
			d, err := c.Deploy(h, spec)
			if err != nil {
				t.Fatalf("deploy %s: %v", spec.Name, err)
			}
			for _, src := range []int{(h + 1) % hosts, (h + 2) % hosts} {
				if _, err := c.AddRemoteClient(src, d, 0, rackLinkDelay(src, h),
					dist.Uniform{Lo: simtime.Micros(150), Hi: simtime.Micros(500)},
					dist.Uniform{Lo: simtime.Micros(20), Hi: simtime.Micros(80)}, 0); err != nil {
					t.Fatalf("client for %s: %v", spec.Name, err)
				}
			}
		}
	}
	for k := 0; k < hosts-1; k++ {
		d, _ := c.Lookup(fmt.Sprintf("cache%d-0", k))
		at := simtime.Time(0).Add(simtime.Millis(int64(100 * (k + 1))))
		if err := c.PlanMigration(at, d, (k+1)%hosts); err != nil {
			t.Fatalf("plan migration %d: %v", k, err)
		}
	}
	return c
}

// TestShardedRackWorld pins the rack cluster's determinism and window
// contract on 8 hosts for one simulated second: the cluster digest and
// per-host dispatch streams match testdata/rack8-1s.txt byte for byte,
// the same world windowed on the complete graph at the global lookahead
// (declareGlobalWindows) matches in everything but the window count, and
// the declared rack topology cuts that window count at least 4× (8,070
// per-edge vs 43,962 global when this test was written).
func TestShardedRackWorld(t *testing.T) {
	span := simtime.Second
	base := runSharded(t, buildRackWorld(t, false), span)
	migs := 0
	for _, d := range base.c.Deployments() {
		migs += d.Migrations
	}
	if migs != rackHosts-1 {
		t.Fatalf("want %d completed migrations, got %d", rackHosts-1, migs)
	}
	checkGolden(t, "rack8-1s.txt", base)

	global := runSharded(t, buildRackWorld(t, true), span)
	if stripWindowCount(t, global.digest) != stripWindowCount(t, base.digest) {
		t.Errorf("windowing modes diverged beyond the window count:\n--- per-edge ---\n%s--- global ---\n%s",
			base.digest, global.digest)
	}
	pw, gw := base.c.Set.Windows(), global.c.Set.Windows()
	if pw*4 > gw {
		t.Errorf("per-edge windows %d vs global %d — want at least a 4× reduction", pw, gw)
	}
	t.Logf("windows: per-edge %d, global %d (%.1fx)", pw, gw, float64(gw)/float64(pw))
}

// TestShardedRackWorldChunking pins chunking invariance on the 8-host
// rack world: one Run over a second matches any split of it into
// consecutive Run calls in the cluster digest (all but its window count),
// the per-host dispatch streams and the event count.
func TestShardedRackWorldChunking(t *testing.T) {
	ms := simtime.Millis
	splits := [][]simtime.Duration{
		{ms(500), ms(500)},
		{ms(333), ms(333), ms(334)},
		{simtime.Micros(123457), ms(400), simtime.Micros(476543)},
	}
	one := runSharded(t, buildRackWorld(t, false), simtime.Second)
	for _, split := range splits {
		got := runSharded(t, buildRackWorld(t, false), split...)
		if stripWindowCount(t, got.digest) != stripWindowCount(t, one.digest) {
			t.Errorf("split %v: digest differs from one Run:\n--- one ---\n%s--- split ---\n%s",
				split, one.digest, got.digest)
		}
		for i := range got.disp {
			if got.disp[i] != one.disp[i] {
				t.Errorf("split %v: host%d dispatch digest %016x != one Run's %016x",
					split, i, got.disp[i], one.disp[i])
			}
		}
		if ge, oe := got.c.Set.EventsFired(), one.c.Set.EventsFired(); ge != oe {
			t.Errorf("split %v: %d events, one Run fired %d", split, ge, oe)
		}
	}
}

// TestShardedMigrationForwarding pins the traffic protocol around a live
// migration: the source forwards late requests to the VM's new host, the
// target drops requests that arrive mid-blackout, and the blackout total
// matches the configured stop-and-copy model.
func TestShardedMigrationForwarding(t *testing.T) {
	cfg := DefaultShardedConfig()
	cfg.Hosts = 2
	cfg.MigrationDowntime = simtime.Millis(20)
	cfg.MigrationPerBW = simtime.Millis(10)
	c := NewSharded(cfg)
	spec := VMSpec{Name: "srv", VCPUs: 1, Tasks: []TaskSpec{
		{Name: "req", Kind: task.Sporadic,
			Params: task.Params{Slice: simtime.Micros(100), Period: simtime.Micros(500)}},
	}}
	d, err := c.Deploy(0, spec)
	if err != nil {
		t.Fatal(err)
	}
	// A steady client on host 1 hammers the VM; the VM then migrates to
	// host 1, so every post-migration request takes the forwarding hop
	// host0 -> host1.
	if _, err := c.AddRemoteClient(1, d, 0, cfg.Lookahead,
		dist.Constant{D: simtime.Micros(200)}, nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.PlanMigration(simtime.Time(0).Add(simtime.Millis(50)), d, 1); err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Run(simtime.Millis(200))
	c.Finish()

	wantDowntime := cfg.MigrationDowntime +
		simtime.Duration(float64(cfg.MigrationPerBW)*spec.Bandwidth())
	if d.Migrations != 1 || d.Migrating() || d.Guest() == nil {
		t.Fatalf("migration did not complete: migs=%d migrating=%v dark=%v",
			d.Migrations, d.Migrating(), d.Guest() == nil)
	}
	if d.HostIndex() != 1 {
		t.Fatalf("VM on host%d, want host1", d.HostIndex())
	}
	if d.BlackoutTotal != wantDowntime {
		t.Fatalf("blackout %v, want %v", d.BlackoutTotal, wantDowntime)
	}
	src, dst := c.Hosts[0].Agent(), c.Hosts[1].Agent()
	if src.Forwarded == 0 {
		t.Error("source host forwarded nothing after the VM left")
	}
	if dst.Dropped == 0 {
		t.Error("target host dropped nothing during the blackout")
	}
	if src.Delivered == 0 || dst.Delivered == 0 {
		t.Errorf("both hosts should have delivered requests: src=%d dst=%d",
			src.Delivered, dst.Delivered)
	}
	// The 200µs stream against a 500µs minimum inter-arrival must throttle.
	if src.Throttled+dst.Throttled == 0 {
		t.Error("sporadic minimum inter-arrival never throttled a request")
	}
	// Nothing vanished: every request the client sent was delivered,
	// throttled, or dropped exactly once (forwards re-deliver elsewhere,
	// and up to one forwarded request may still be in flight at the end).
	cl := c.clients[0]
	accounted := src.Delivered + dst.Delivered + src.Throttled + dst.Throttled +
		src.Dropped + dst.Dropped
	if accounted > uint64(cl.Sent()) || uint64(cl.Sent())-accounted > 1 {
		t.Errorf("request conservation: sent=%d accounted=%d", cl.Sent(), accounted)
	}
}

// TestShardedLinkDelay pins the per-pair link-delay model: forwarded
// requests pay LinkDelay(src, dst) instead of the global lookahead floor,
// and a LinkDelay returning less than the lookahead panics loudly (at
// PlanMigration, which prices the migration edge).
func TestShardedLinkDelay(t *testing.T) {
	build := func(link func(int, int) simtime.Duration) (*Sharded, *ShardedDeployment) {
		t.Helper()
		cfg := DefaultShardedConfig()
		cfg.Hosts = 2
		cfg.MigrationDowntime = simtime.Millis(20)
		cfg.MigrationPerBW = simtime.Millis(10)
		cfg.LinkDelay = link
		c := NewSharded(cfg)
		d, err := c.Deploy(0, VMSpec{Name: "srv", VCPUs: 1, Tasks: []TaskSpec{
			{Name: "req", Kind: task.Sporadic,
				Params: task.Params{Slice: simtime.Micros(100), Period: simtime.Micros(500)}},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.AddRemoteClient(1, d, 0, simtime.Micros(400),
			dist.Constant{D: simtime.Micros(200)}, nil, 0); err != nil {
			t.Fatal(err)
		}
		if err := c.PlanMigration(simtime.Time(0).Add(simtime.Millis(50)), d, 1); err != nil {
			t.Fatal(err)
		}
		return c, d
	}

	c1, d1 := build(func(src, dst int) simtime.Duration { return simtime.Micros(350) })
	c1.Start()
	c1.Run(simtime.Millis(200))
	c1.Finish()
	if d1.Migrations != 1 {
		t.Fatalf("migration did not complete: %d", d1.Migrations)
	}
	if fwd := c1.Hosts[0].Agent().Forwarded; fwd == 0 {
		t.Error("no request took the forwarding hop despite the steady client")
	}

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("LinkDelay below the lookahead did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "below lookahead") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	c, _ := build(func(int, int) simtime.Duration { return simtime.Micros(1) })
	c.Start()
}

// TestShardedConfigValidation covers the config rejections.
func TestShardedConfigValidation(t *testing.T) {
	good := DefaultShardedConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := good
	bad.MigrationDowntime = good.Lookahead / 2
	if err := bad.Validate(); err == nil {
		t.Error("downtime below lookahead accepted")
	}
	bad = good
	bad.Hosts = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero hosts accepted")
	}
	bad = good
	bad.System.Seed = 7
	if err := bad.Validate(); err == nil {
		t.Error("non-zero template seed accepted")
	}
	bad = good
	bad.System.PCPUs = good.PCPUs + 1
	if err := bad.Validate(); err == nil {
		t.Error("conflicting template PCPUs accepted")
	}
}

// TestShardedClientValidation covers remote-client admission rules.
func TestShardedClientValidation(t *testing.T) {
	c := NewSharded(DefaultShardedConfig())
	d, err := c.Deploy(0, VMSpec{Name: "v", Tasks: []TaskSpec{
		{Name: "s", Kind: task.Sporadic,
			Params: task.Params{Slice: simtime.Micros(100), Period: simtime.Millis(1)}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	inter := dist.Constant{D: simtime.Millis(1)}
	if _, err := c.AddRemoteClient(1, d, 0, c.Cfg.Lookahead-1, inter, nil, 0); err == nil {
		t.Error("delay below lookahead accepted")
	}
	if _, err := c.AddRemoteClient(0, d, 0, c.Cfg.Lookahead, inter, nil, 0); err == nil {
		t.Error("co-located client accepted")
	}
	if _, err := c.AddRemoteClient(1, d, 5, c.Cfg.Lookahead, inter, nil, 0); err == nil {
		t.Error("task index out of range accepted")
	}
	if _, err := c.AddRemoteClient(1, d, 0, c.Cfg.Lookahead, nil, nil, 0); err == nil {
		t.Error("nil inter-arrival accepted")
	}
	if _, err := c.AddRemoteClient(1, d, 0, c.Cfg.Lookahead, inter, nil, -1); err == nil {
		t.Error("negative request cap accepted")
	}
}

// TestShardedBarrierControl drives a client-fed VM through a barrier-time
// migration and then a crash of its new host: requests that still reach
// the old hosts chase it along the forward edges the moves declared (the
// crashed host's agent keeps forwarding), a client-free VM's move
// declares no edge at all.
func TestShardedBarrierControl(t *testing.T) {
	cfg := DefaultShardedConfig()
	cfg.Hosts = 3
	cfg.MigrationDowntime = simtime.Millis(20)
	cfg.MigrationPerBW = simtime.Millis(10)
	cfg.RecoveryDelay = simtime.Millis(30)
	c := NewSharded(cfg)
	srv, err := c.Deploy(0, VMSpec{Name: "srv", VCPUs: 1, Tasks: []TaskSpec{
		{Name: "req", Kind: task.Sporadic,
			Params: task.Params{Slice: simtime.Micros(100), Period: simtime.Micros(500)}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddRemoteClient(2, srv, 0, cfg.Lookahead,
		dist.Constant{D: simtime.Micros(700)}, nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy(2, vmSpec("quiet", 2, 10)); err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Run(simtime.Millis(50))
	if _, err := c.Migrate("srv", c.Hosts[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Migrate("quiet", c.Hosts[1]); err != nil {
		t.Fatal(err)
	}
	c.Run(simtime.Millis(100))
	if affected := c.FailHost(c.Hosts[1]); len(affected) != 2 {
		t.Fatalf("crash affected %d VMs, want 2", len(affected))
	}
	c.Run(simtime.Millis(100))
	c.Finish()
	if srv.Migrations != 1 || srv.Failovers != 1 || srv.Guest() == nil {
		t.Fatalf("srv: migrations=%d failovers=%d dark=%v", srv.Migrations, srv.Failovers, srv.Guest() == nil)
	}
	r := srv.HostIndex()
	if got, want := c.Set.EdgeLookahead(0, 1), c.hopDelay(0, 1); got != want {
		t.Errorf("migration forward edge 0->1 = %v, want %v", got, want)
	}
	if got, want := c.Set.EdgeLookahead(1, r), c.hopDelay(1, r); got != want {
		t.Errorf("failover forward edge 1->%d = %v, want %v", r, got, want)
	}
	if got := c.Set.EdgeLookahead(2, 1); got != 0 {
		t.Errorf("client-free VM's move declared edge 2->1 = %v", got)
	}
	if c.Hosts[0].Agent().Forwarded == 0 || c.Hosts[1].Agent().Forwarded == 0 {
		t.Errorf("requests did not chase the VM: host0 forwarded %d, crashed host1 %d",
			c.Hosts[0].Agent().Forwarded, c.Hosts[1].Agent().Forwarded)
	}
}
