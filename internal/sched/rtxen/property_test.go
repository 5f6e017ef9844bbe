package rtxen

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

// Property: a deferrable server never supplies more than its budget per
// period — a greedy guest (background hog inside the server VM) is capped
// at budget/period of the CPU over any long window.
func TestQuickBudgetEnforcement(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		budget := ms(1 + rng.Int63n(5))
		period := budget + ms(1+rng.Int63n(10))
		s := sim.New(seed)
		h := hv.NewHost(s, 1, New(DefaultConfig()), hv.CostModel{})
		cfg := guest.Config{CrossLayer: false, VCPUCapacity: 1e9}
		g, err := guest.NewOS(h, "vm", cfg, 0)
		if err != nil {
			return false
		}
		if _, err := g.AddVCPU(hv.Reservation{Budget: budget, Period: period}, 256); err != nil {
			return false
		}
		hog := task.NewBackground(0, "hog")
		if err := g.Register(hog); err != nil {
			return false
		}
		h.Start()
		g.ReleaseAt(hog, s.Now(), simtime.Seconds(1000))
		dur := simtime.Seconds(2)
		s.RunFor(dur)
		h.Sync()
		run := g.VM().TotalRun()
		// Entitled share ± one period of slop for edge effects.
		entitled := simtime.ScaleDuration(dur, int64(budget), int64(period))
		return run <= entitled+period && run >= entitled-period
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: under gEDF with total server utilization ≤ m and per-server
// utilization well below 1, fully provisioned periodic tasks meet their
// deadlines (harmonic parameters, the regime RT-Xen guarantees).
func TestQuickGEDFHarmonicSchedulability(t *testing.T) {
	if testing.Short() {
		t.Skip("long property test")
	}
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		m := 1 + rng.Intn(3)
		s := sim.New(seed)
		h := hv.NewHost(s, m, New(DefaultConfig()), hv.CostModel{})
		budgetLeft := 0.7 * float64(m)
		var tasks []*task.Task
		var guests []*guest.OS
		id := 0
		for budgetLeft > 0.15 && id < 8 {
			// Harmonic periods: 10, 20, 40, 80 ms.
			period := ms(10 << rng.Intn(3))
			bw := 0.1 + rng.Float64()*0.4
			if bw > budgetLeft {
				bw = budgetLeft
			}
			slice := simtime.Duration(bw * float64(period))
			serverBudget := slice + period/10 // +10% server headroom
			cfg := guest.Config{CrossLayer: false, VCPUCapacity: 1.0}
			g, err := guest.NewOS(h, fmt.Sprintf("vm%d", id), cfg, 0)
			if err != nil {
				return false
			}
			if _, err := g.AddVCPU(hv.Reservation{Budget: serverBudget, Period: period}, 256); err != nil {
				break
			}
			tk := task.New(id, fmt.Sprintf("t%d", id), task.Periodic,
				task.Params{Slice: slice, Period: period})
			if err := g.RegisterOn(tk, 0); err != nil {
				return false
			}
			budgetLeft -= float64(serverBudget) / float64(period)
			tasks = append(tasks, tk)
			guests = append(guests, g)
			id++
		}
		h.Start()
		for i, tk := range tasks {
			guests[i].StartPeriodic(tk, 0)
		}
		s.RunFor(simtime.Seconds(3))
		for _, tk := range tasks {
			if tk.Stats().Missed != 0 {
				t.Logf("seed %d: %s %v missed %d/%d", seed, tk.Name, tk.Params(),
					tk.Stats().Missed, tk.Stats().Released)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
