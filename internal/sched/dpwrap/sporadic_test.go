package dpwrap

import (
	"fmt"
	"testing"
	"testing/quick"

	"rtvirt/internal/guest"
	"rtvirt/internal/hv"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// Property: sporadic RTAs with random minimum inter-arrival constraints
// meet their deadlines under contention from periodic VMs, as long as
// total utilization stays under capacity — the worst-case-floor mechanism
// of §3.3.
func TestQuickSporadicTimeliness(t *testing.T) {
	if testing.Short() {
		t.Skip("long property test")
	}
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		s := sim.New(seed)
		sched := New(DefaultConfig())
		h := hv.NewHost(s, 2, sched, hv.CostModel{})
		gc := guest.DefaultConfig()
		gc.Slack = simtime.Micros(200)

		// Periodic contender ~60% of one CPU.
		gP, err := guest.NewOS(h, "periodic", gc, 1)
		if err != nil {
			return false
		}
		per := task.New(0, "per", task.Periodic,
			task.Params{Slice: simtime.Millis(6), Period: simtime.Millis(10)})
		if err := gP.Register(per); err != nil {
			return false
		}

		// 1–3 sporadic RTAs, each in its own VM.
		n := 1 + rng.Intn(3)
		var sps []*task.Task
		var guests []*guest.OS
		for i := 0; i < n; i++ {
			period := simtime.Millis(10 + rng.Int63n(60))
			bw := 0.05 + rng.Float64()*0.25
			slice := simtime.Duration(bw * float64(period))
			g, err := guest.NewOS(h, fmt.Sprintf("sp%d", i), gc, 1)
			if err != nil {
				return false
			}
			tk := task.New(10+i, fmt.Sprintf("sp%d", i), task.Sporadic,
				task.Params{Slice: slice, Period: period})
			if err := g.Register(tk); err != nil {
				// Over capacity for this draw; skip the task.
				continue
			}
			sps = append(sps, tk)
			guests = append(guests, g)
		}
		h.Start()
		gP.StartPeriodic(per, 0)

		// Drive each sporadic task with random triggers ≥ its min
		// inter-arrival apart: run to the earliest trigger, act, draw the
		// task's next one.
		next := make([]simtime.Time, len(sps))
		for i := range sps {
			next[i] = simtime.Time(rng.Int63n(int64(simtime.Millis(20))))
		}
		end := simtime.Time(simtime.Seconds(5))
		for len(sps) > 0 {
			i := 0
			for j := range next {
				if next[j] < next[i] {
					i = j
				}
			}
			now := next[i]
			if now > end {
				break
			}
			s.RunUntil(now)
			if tk := sps[i]; tk.EarliestNextRelease() <= now {
				guests[i].ReleaseJob(tk, 0)
			}
			next[i] = now.Add(sps[i].Params().Period + simtime.Duration(rng.Int63n(int64(simtime.Millis(50)))))
		}
		s.RunUntil(end)
		for _, tk := range sps {
			st := tk.Stats()
			if st.Released == 0 {
				return false
			}
			if st.Missed != 0 {
				t.Logf("seed %d: %s %v missed %d/%d", seed, tk.Name, tk.Params(),
					st.Missed, st.Released)
				return false
			}
		}
		return per.Stats().Missed == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestMaxSliceCapsIdleBoundaries: with no published deadlines, boundary
// events still run at the 100ms MaxSlice cadence so background VMs keep
// being rebalanced.
func TestMaxSliceCapsIdleBoundaries(t *testing.T) {
	s := sim.New(3)
	sched := New(DefaultConfig())
	h := hv.NewHost(s, 1, sched, hv.CostModel{})
	h.Start()
	s.RunFor(simtime.Seconds(1))
	// One boundary at start, then one every 100ms up to and including 1s.
	if sched.Boundaries != 11 {
		t.Fatalf("boundaries = %d, want 11", sched.Boundaries)
	}
}

// TestSlotUpdateShortensSlice: starting a periodic task mid-slice triggers
// the SlotUpdated replan so its first deadline is honoured.
func TestSlotUpdateShortensSlice(t *testing.T) {
	s := sim.New(3)
	sched := New(DefaultConfig())
	h := hv.NewHost(s, 1, sched, hv.CostModel{})
	gc := guest.DefaultConfig()
	gc.Slack = simtime.Micros(100)
	g, err := guest.NewOS(h, "vm", gc, 1)
	if err != nil {
		t.Fatal(err)
	}
	tk := task.New(0, "late-starter", task.Periodic,
		task.Params{Slice: simtime.Millis(4), Period: simtime.Millis(10)})
	if err := g.Register(tk); err != nil {
		t.Fatal(err)
	}
	h.Start()
	// Start 30ms in, mid-way through the idle 100ms slice.
	g.StartPeriodic(tk, simtime.Time(simtime.Millis(30)))
	s.RunFor(simtime.Seconds(1))
	if st := tk.Stats(); st.Missed != 0 {
		t.Fatalf("late-started task missed %d/%d; SlotUpdated replan broken",
			st.Missed, st.Released)
	}
}
