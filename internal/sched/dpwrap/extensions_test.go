package dpwrap

import (
	"fmt"
	"testing"

	"rtvirt/internal/guest"
	"rtvirt/internal/hv"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// TestIdleTaxSqueezesIdleClaim exercises the §6 extension: a VM that
// reserves far more than it uses is taxed toward its observed usage,
// making room for a new admission that the nominal reservations would
// reject.
func TestIdleTaxSqueezesIdleClaim(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IdleTax = true
	cfg.TaxWindow = simtime.Millis(50)
	s := sim.New(3)
	sched := New(cfg)
	h := hv.NewHost(s, 1, sched, hv.CostModel{})

	// The over-claimer: reserves 70% but its task only ever uses ~5%.
	gcfg := guest.DefaultConfig()
	gcfg.Slack = 0
	gIdle, err := guest.NewOS(h, "overclaimer", gcfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	idler := task.New(0, "idler", task.Periodic, task.Params{Slice: simtime.Millis(7), Period: simtime.Millis(10)})
	if err := gIdle.Register(idler); err != nil {
		t.Fatal(err)
	}
	// It never starts periodic releases beyond a trickle.
	trickle := task.New(1, "trickle", task.Sporadic, task.Params{Slice: simtime.Micros(500), Period: simtime.Millis(10)})
	_ = trickle
	h.Start()
	v := gIdle.VM().VCPUs[0]
	if f := sched.TaxFactor(v); f != 1.0 {
		t.Fatalf("initial tax factor %v, want 1", f)
	}
	// Release one tiny job per 100ms through both 2s phases: usage ≈ 0.5%.
	for at := simtime.Time(0); at <= simtime.Time(simtime.Seconds(4)); at = at.Add(simtime.Millis(100)) {
		gIdle.ReleaseAt(idler, at, simtime.Micros(500))
	}
	s.RunFor(simtime.Seconds(2))
	f := sched.TaxFactor(v)
	if f > 0.5 {
		t.Fatalf("tax factor %v after 2s of idling; should approach the floor", f)
	}
	if f < TaxFloor-1e-9 {
		t.Fatalf("tax factor %v below the floor %v", f, TaxFloor)
	}

	// A second VM needing 60% must now be admissible (0.7×factor + 0.6 ≤ 1).
	g2, err := guest.NewOS(h, "newcomer", gcfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	busy := task.New(2, "busy", task.Periodic, task.Params{Slice: simtime.Millis(6), Period: simtime.Millis(10)})
	if err := g2.Register(busy); err != nil {
		t.Fatalf("taxed admission rejected the newcomer: %v", err)
	}
	g2.StartPeriodic(busy, s.Now())
	s.RunFor(simtime.Seconds(2))
	if st := busy.Stats(); st.MissRatio() > 0.02 {
		t.Fatalf("newcomer missed %.2f%% next to a taxed idler", 100*st.MissRatio())
	}
	if st := idler.Stats(); st.Released != 41 {
		t.Fatalf("idler released %d drip jobs over 4s, want 41", st.Released)
	}
}

// TestIdleTaxRecovers: when the taxed VM becomes busy again its factor
// climbs back toward 1.
func TestIdleTaxRecovers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IdleTax = true
	cfg.TaxWindow = simtime.Millis(50)
	s := sim.New(3)
	sched := New(cfg)
	h := hv.NewHost(s, 1, sched, hv.CostModel{})
	gcfg := guest.DefaultConfig()
	gcfg.Slack = 0
	g, err := guest.NewOS(h, "vm", gcfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	tk := task.New(0, "t", task.Periodic, task.Params{Slice: simtime.Millis(5), Period: simtime.Millis(10)})
	if err := g.Register(tk); err != nil {
		t.Fatal(err)
	}
	h.Start()
	v := g.VM().VCPUs[0]
	// Idle for a second: factor drops.
	s.RunFor(simtime.Seconds(1))
	low := sched.TaxFactor(v)
	if low > 0.5 {
		t.Fatalf("factor %v did not drop while idle", low)
	}
	// Run at full reservation: factor recovers.
	g.StartPeriodic(tk, s.Now())
	s.RunFor(simtime.Seconds(2))
	if got := sched.TaxFactor(v); got < 0.9 {
		t.Fatalf("factor %v did not recover under load (was %v)", got, low)
	}
	// And deadlines hold through the recovery (allocation scales with the
	// factor, which always covers the observed usage).
	if st := tk.Stats(); st.MissRatio() > 0.10 {
		t.Fatalf("missed %.1f%% during tax recovery", 100*st.MissRatio())
	}
}

// TestNoMigratePinsVCPU exercises the §6 affinity extension: a pinned VCPU
// never changes PCPU while unpinned neighbours may.
func TestNoMigratePinsVCPU(t *testing.T) {
	s := sim.New(3)
	sched := New(DefaultConfig())
	h := hv.NewHost(s, 2, sched, hv.CostModel{})
	gcfg := guest.DefaultConfig()
	gcfg.Slack = 0

	var tasks []*task.Task
	var guests []*guest.OS
	// 1.8 CPUs of load across 3 VMs; the middle one is pinned.
	for i, bw := range []int64{7, 6, 5} {
		g, err := guest.NewOS(h, fmt.Sprintf("vm%d", i), gcfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		tk := task.New(i, fmt.Sprintf("t%d", i), task.Periodic,
			task.Params{Slice: simtime.Millis(bw), Period: simtime.Millis(10)})
		if err := g.Register(tk); err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, tk)
		guests = append(guests, g)
	}
	pinned := guests[1].VM().VCPUs[0]
	pinned.NoMigrate = true

	h.Start()
	for i, tk := range tasks {
		guests[i].StartPeriodic(tk, 0)
	}
	// Track the pinned VCPU's PCPU over time, sampling every 100µs.
	migrations := 0
	lastPCPU := -1
	for at := simtime.Time(0); at <= simtime.Time(simtime.Seconds(3)); at = at.Add(simtime.Micros(100)) {
		s.RunUntil(at)
		if p := pinned.OnPCPU(); p != nil {
			if lastPCPU >= 0 && p.ID != lastPCPU {
				migrations++
			}
			lastPCPU = p.ID
		}
	}
	if migrations != 0 {
		t.Fatalf("pinned VCPU migrated %d times", migrations)
	}
	for _, tk := range tasks {
		if st := tk.Stats(); st.MissRatio() > 0.01 {
			t.Errorf("%s missed %.2f%% with a pinned neighbour", tk.Name, 100*st.MissRatio())
		}
	}
}

// TestRTCapacityReservesBackgroundShare: with RTCapacity < 1, admission
// leaves headroom that background VMs always receive (§3.4's starvation
// avoidance).
func TestRTCapacityReservesBackgroundShare(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RTCapacity = 0.8
	s := sim.New(3)
	sched := New(cfg)
	h := hv.NewHost(s, 1, sched, hv.CostModel{})
	gcfg := guest.DefaultConfig()
	gcfg.Slack = 0
	g, err := guest.NewOS(h, "rt", gcfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 0.9 must be rejected under the 0.8 cap...
	big := task.New(0, "big", task.Periodic, task.Params{Slice: simtime.Millis(9), Period: simtime.Millis(10)})
	if err := g.Register(big); err == nil {
		t.Fatal("0.9 admitted past RTCapacity 0.8")
	}
	// ...0.8 fits exactly.
	fit := task.New(1, "fit", task.Periodic, task.Params{Slice: simtime.Millis(8), Period: simtime.Millis(10)})
	if err := g.Register(fit); err != nil {
		t.Fatal(err)
	}
	gbg, err := guest.NewOS(h, "bg", gcfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	hog := task.NewBackground(2, "hog")
	if err := gbg.Register(hog); err != nil {
		t.Fatal(err)
	}
	h.Start()
	g.StartPeriodic(fit, 0)
	gbg.ReleaseAt(hog, s.Now(), simtime.Seconds(100))
	s.RunFor(simtime.Seconds(5))
	h.Sync()
	// The hog gets the reserved 20%.
	bgRun := gbg.VM().TotalRun()
	if bgRun < simtime.Millis(900) {
		t.Fatalf("background received only %v of 5s; the 20%% reserve is starved", bgRun)
	}
	if st := fit.Stats(); st.Missed != 0 {
		t.Fatalf("RT task missed %d with capacity reserve", st.Missed)
	}
}

// TestNoMigrateOverflowSplits drives the pin fallback: when several pinned
// VCPUs cannot all fit whole on a PCPU within a slice, the overflow VCPU
// is split rather than dropped — the pin is best-effort, the reservation
// is not. All reservations must still be honoured.
func TestNoMigrateOverflowSplits(t *testing.T) {
	s := sim.New(5)
	sched := New(DefaultConfig())
	h := hv.NewHost(s, 2, sched, hv.CostModel{})
	gcfg := guest.DefaultConfig()
	gcfg.Slack = 0

	// Three pinned VMs at 0.7+0.7+0.4 = 1.8 CPUs: the third fits whole on
	// neither PCPU (0.3 free on each), so it must be split.
	var tasks []*task.Task
	var guests []*guest.OS
	for i, bw := range []int64{7, 7, 4} {
		g, err := guest.NewOS(h, fmt.Sprintf("vm%d", i), gcfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		tk := task.New(i, fmt.Sprintf("t%d", i), task.Periodic,
			task.Params{Slice: simtime.Millis(bw), Period: simtime.Millis(10)})
		if err := g.Register(tk); err != nil {
			t.Fatal(err)
		}
		g.VM().VCPUs[0].NoMigrate = true
		tasks = append(tasks, tk)
		guests = append(guests, g)
	}
	h.Start()
	for i, tk := range tasks {
		guests[i].StartPeriodic(tk, 0)
	}
	s.RunFor(simtime.Seconds(3))
	for _, tk := range tasks {
		if st := tk.Stats(); st.MissRatio() > 0.01 {
			t.Errorf("%s missed %.2f%% (%d/%d) with overflowing pins",
				tk.Name, 100*st.MissRatio(), st.Missed, st.Released)
		}
	}
	// The split plan still delivers the overflow VM its full demand
	// (0.4 CPUs over 3s). Work-conserving execution may satisfy the split
	// quota without a physical migration — that is fine; the reservation
	// is what matters.
	h.Sync()
	if run := guests[2].VM().TotalRun(); run < simtime.Duration(float64(3*simtime.Second)*0.39) {
		t.Errorf("overflow VM ran %v of the 1.2s it reserved", run)
	}
}
