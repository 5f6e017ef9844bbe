package experiments

import (
	"fmt"
	"testing"
	"testing/quick"

	"rtvirt/internal/core"
	"rtvirt/internal/guest"
	"rtvirt/internal/hv"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
	"rtvirt/internal/workload"
)

// accountingIdentity checks the kernel invariant busy+overhead+idle =
// capacity×elapsed on every PCPU.
func accountingIdentity(t *testing.T, seed uint64, sys *core.System, elapsed simtime.Duration) bool {
	t.Helper()
	sys.Host.Sync()
	var accounted simtime.Duration
	for _, p := range sys.Host.PCPUs() {
		accounted += p.BusyTime + p.OverheadTime + p.IdleTime
	}
	want := simtime.Duration(int64(elapsed) * int64(sys.Host.NumPCPUs()))
	if accounted != want {
		t.Logf("seed %d: accounted %v of %v", seed, accounted, want)
		return false
	}
	return true
}

// Property: the RT-Xen baseline survives VM churn — server VMs appearing
// and disappearing at random instants never corrupt the kernel, and a
// steady VM with an adequate server keeps its deadlines throughout.
func TestQuickRTXenChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("long property test")
	}
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		cfg := core.DefaultConfig(core.RTXen)
		cfg.PCPUs = 2 + rng.Intn(3)
		cfg.Seed = seed
		sys := core.NewSystem(cfg)

		// The protected VM: a half-CPU server for a 0.2-CPU task.
		gSteady, err := sys.NewServerGuest("steady",
			[]hv.Reservation{{Budget: simtime.Millis(5), Period: simtime.Millis(10)}}, 256)
		if err != nil {
			t.Logf("seed %d: steady guest: %v", seed, err)
			return false
		}
		steady := task.New(0, "steady", task.Periodic, pp(2, 10))
		must(gSteady.RegisterOn(steady, 0))
		sys.Start()
		gSteady.StartPeriodic(steady, 0)

		type liveVM struct {
			g  *guest.OS
			tk *task.Task
		}
		var live []liveVM
		id := 100
		events := 20 + rng.Intn(40)
		var acts []timedAction
		for e := 0; e < events; e++ {
			at := simtime.Time(rng.Int63n(int64(simtime.Seconds(5))))
			wantCreate := rng.Intn(2) == 0
			period := simtime.Millis(5 + rng.Int63n(25))
			bw := 0.1 + rng.Float64()*0.4
			budget := simtime.Duration(bw * float64(period))
			myID := id
			id++
			acts = append(acts, timedAction{at, func(now simtime.Time) {
				if wantCreate || len(live) == 0 {
					g, err := sys.NewServerGuest(fmt.Sprintf("churn%d", myID),
						[]hv.Reservation{{Budget: budget, Period: period}}, 256)
					if err != nil {
						return // admission rejection is fine
					}
					// Task at ~80% of the server's bandwidth.
					tk := task.New(myID, fmt.Sprintf("t%d", myID), task.Periodic,
						task.Params{Slice: budget * 4 / 5, Period: period})
					if err := g.RegisterOn(tk, 0); err != nil {
						_ = g.Shutdown()
						return
					}
					g.StartPeriodic(tk, now)
					live = append(live, liveVM{g, tk})
				} else {
					i := rng.Intn(len(live))
					vm := live[i]
					live = append(live[:i], live[i+1:]...)
					if err := vm.g.Shutdown(); err != nil {
						panic(err)
					}
				}
			}})
		}
		runActing(sys, simtime.Time(6*simtime.Second), acts)

		if r := steady.Stats().MissRatio(); r > 0.01 {
			t.Logf("seed %d: steady task missed %.4f through churn", seed, r)
			return false
		}
		// Shut-down VMs must be fully gone from the host.
		want := 1 + len(live)
		if got := len(sys.Host.VMs()); got != want {
			t.Logf("seed %d: %d VMs on host, want %d", seed, got, want)
			return false
		}
		return accountingIdentity(t, seed, sys, 6*simtime.Second)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Property: the Credit baseline survives weighted-VM churn — hogs coming
// and going never break the kernel accounting, capacity is never
// oversubscribed, and the scheduler keeps every PCPU busy while hogs
// exist (work conservation).
func TestQuickCreditChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("long property test")
	}
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		cfg := core.DefaultConfig(core.Credit)
		cfg.PCPUs = 2 + rng.Intn(2)
		cfg.Seed = seed
		sys := core.NewSystem(cfg)

		// Two permanent hogs guarantee there is always runnable work.
		gBase, err := sys.NewWeightedGuest("base", cfg.PCPUs, 256)
		if err != nil {
			return false
		}
		var baseHogs []*workload.CPUHog
		for i := 0; i < cfg.PCPUs; i++ {
			h, err := workload.NewCPUHog(gBase, i, fmt.Sprintf("base%d", i))
			if err != nil {
				return false
			}
			baseHogs = append(baseHogs, h)
		}
		sys.Start()
		for _, h := range baseHogs {
			h.Start(0)
		}

		var live []*guest.OS
		id := 100
		events := 15 + rng.Intn(30)
		var acts []timedAction
		for e := 0; e < events; e++ {
			at := simtime.Time(rng.Int63n(int64(simtime.Seconds(3))))
			wantCreate := rng.Intn(2) == 0
			myID := id
			id++
			weight := 64 << rng.Intn(4) // 64..512
			acts = append(acts, timedAction{at, func(now simtime.Time) {
				if wantCreate || len(live) == 0 {
					g, err := sys.NewWeightedGuest(fmt.Sprintf("churn%d", myID), 1, weight)
					if err != nil {
						return
					}
					h, err := workload.NewCPUHog(g, myID, "hog")
					if err != nil {
						return
					}
					h.Start(now)
					live = append(live, g)
				} else {
					i := rng.Intn(len(live))
					g := live[i]
					live = append(live[:i], live[i+1:]...)
					if err := g.Shutdown(); err != nil {
						panic(err)
					}
				}
			}})
		}
		runActing(sys, simtime.Time(4*simtime.Second), acts)
		if !accountingIdentity(t, seed, sys, 4*simtime.Second) {
			return false
		}
		// Work conservation: with permanent hogs on every PCPU, idle time
		// is at most the scheduler's own bookkeeping windows.
		sys.Host.Sync()
		var idle, overhead simtime.Duration
		for _, p := range sys.Host.PCPUs() {
			idle += p.IdleTime
			overhead += p.OverheadTime
		}
		if idle > simtime.Millis(50) {
			t.Logf("seed %d: %v idle despite permanent hogs (overhead %v)", seed, idle, overhead)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
