package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"rtvirt/internal/core"
	"rtvirt/internal/guest"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// timedAction is a test's own intervention in a running world.
type timedAction struct {
	at simtime.Time
	do func(now simtime.Time)
}

// runActing runs sys until end, stopping at each action's instant (in time
// order, ties in list order) to run it once the events due there fired.
// Actions past end never run.
func runActing(sys *core.System, end simtime.Time, acts []timedAction) {
	slices.SortStableFunc(acts, func(a, b timedAction) int { return cmp.Compare(a.at, b.at) })
	for _, a := range acts {
		if a.at > end {
			break
		}
		sys.Sim.RunUntil(a.at)
		a.do(a.at)
	}
	sys.Sim.RunUntil(end)
}

// Property: arbitrary register/SetAttr/unregister churn never corrupts the
// system — admission arithmetic stays within capacity, already-running
// tasks keep ≥99% of their deadlines, and the kernel's accounting
// identities hold.
func TestQuickDynamicChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("long property test")
	}
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		cfg := core.DefaultConfig(core.RTVirt)
		cfg.PCPUs = 2 + rng.Intn(3)
		cfg.Seed = seed
		sys := core.NewSystem(cfg)

		// A protected steady task that must ride out all the churn.
		gSteady := mustGuest(sys.NewGuest("steady", 1))
		steady := task.New(0, "steady", task.Periodic, pp(4, 10))
		must(gSteady.Register(steady))

		nG := 2 + rng.Intn(3)
		var guests []*guest.OS
		for i := 0; i < nG; i++ {
			g := mustGuest(sys.NewGuestOpts(fmt.Sprintf("churn%d", i),
				core.GuestOpts{VCPUs: 1, MaxVCPUs: 3}))
			guests = append(guests, g)
		}
		sys.Start()
		gSteady.StartPeriodic(steady, 0)

		// Random churn events over 5 seconds.
		id := 100
		type livetask struct {
			g  *guest.OS
			tk *task.Task
		}
		var live []livetask
		events := 30 + rng.Intn(60)
		var acts []timedAction
		for e := 0; e < events; e++ {
			at := simtime.Time(rng.Int63n(int64(simtime.Seconds(5))))
			action := rng.Intn(3)
			gi := rng.Intn(len(guests))
			period := simtime.Millis(5 + rng.Int63n(45))
			bw := 0.05 + rng.Float64()*0.4
			slice := simtime.Duration(bw * float64(period))
			myID := id
			id++
			acts = append(acts, timedAction{at, func(now simtime.Time) {
				switch action {
				case 0: // register + start
					tk := task.New(myID, fmt.Sprintf("t%d", myID), task.Periodic,
						task.Params{Slice: slice, Period: period})
					if err := guests[gi].Register(tk); err == nil {
						guests[gi].StartPeriodic(tk, now)
						live = append(live, livetask{guests[gi], tk})
					}
				case 1: // unregister a random live task
					if len(live) > 0 {
						i := rng.Intn(len(live))
						lt := live[i]
						live = append(live[:i], live[i+1:]...)
						_ = lt.g.Unregister(lt.tk)
					}
				case 2: // SetAttr on a random live task
					if len(live) > 0 {
						lt := live[rng.Intn(len(live))]
						_ = lt.g.SetAttr(lt.tk, task.Params{Slice: slice, Period: period})
					}
				}
			}})
		}
		runActing(sys, simtime.Time(6*simtime.Second), acts)
		sys.Host.Sync()

		// Steady task: ≥99% of deadlines through the churn.
		if r := steady.Stats().MissRatio(); r > 0.01 {
			t.Logf("seed %d: steady task missed %.4f", seed, r)
			return false
		}
		// Admission never exceeded capacity.
		if bw := sys.AllocatedBandwidth(); bw > float64(cfg.PCPUs)+1e-6 {
			t.Logf("seed %d: allocated %.3f of %d CPUs", seed, bw, cfg.PCPUs)
			return false
		}
		// Kernel identity.
		var accounted simtime.Duration
		for _, p := range sys.Host.PCPUs() {
			accounted += p.BusyTime + p.OverheadTime + p.IdleTime
		}
		want := simtime.Duration(int64(6*simtime.Second) * int64(cfg.PCPUs))
		if accounted != want {
			t.Logf("seed %d: accounted %v of %v", seed, accounted, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
