package csa

import (
	"testing"
	"testing/quick"

	"rtvirt/internal/guest"
	"rtvirt/internal/hv"
	"rtvirt/internal/sched/rtxen"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// Property: analysis vs. reality. If the periodic-resource analysis deems
// a random EDF task set schedulable on interface (Π, Θ), then simulating
// that task set inside a deferrable server (Θ, Π) on a dedicated CPU must
// meet every deadline. This cross-checks internal/csa against the live
// rtxen scheduler — the two were implemented independently from the
// literature.
func TestQuickAnalysisMatchesSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed property")
	}
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		// 1–3 tasks with ms-granular parameters, total utilization ≤ 0.8.
		var tasks []task.Params
		budget := 0.8
		n := 1 + rng.Intn(3)
		for i := 0; i < n && budget > 0.05; i++ {
			period := simtime.Millis(4 + rng.Int63n(28))
			maxBW := budget
			if maxBW > 0.5 {
				maxBW = 0.5
			}
			bw := 0.05 + rng.Float64()*(maxBW-0.05)
			slice := simtime.Duration(bw * float64(period))
			if slice < simtime.Micros(200) {
				slice = simtime.Micros(200)
			}
			tasks = append(tasks, task.Params{Slice: slice, Period: period})
			budget -= float64(slice) / float64(period)
		}
		// Random candidate period; skip draws the analysis rejects.
		period := simtime.Millis(1 + rng.Int63n(4))
		theta, ok := MinBudgetQ(tasks, period, simtime.Micros(100))
		if !ok {
			return true
		}
		iface := Interface{Period: period, Budget: theta}
		if !Schedulable(tasks, iface) {
			t.Logf("seed %d: MinBudgetQ returned unschedulable %v", seed, iface)
			return false
		}

		// Simulate: one VM on a dedicated CPU behind the (Θ, Π) server.
		s := sim.New(seed)
		h := hv.NewHost(s, 1, rtxen.New(rtxen.DefaultConfig()), hv.CostModel{})
		gc := guest.Config{CrossLayer: false, VCPUCapacity: 1.0}
		g, err := guest.NewOS(h, "vm", gc, 0)
		if err != nil {
			return false
		}
		if _, err := g.AddVCPU(hv.Reservation{Budget: iface.Budget, Period: iface.Period}, 256); err != nil {
			return false
		}
		var live []*task.Task
		for i, p := range tasks {
			tk := task.New(i, "t", task.Periodic, p)
			if err := g.RegisterOn(tk, 0); err != nil {
				return false
			}
			live = append(live, tk)
		}
		h.Start()
		for _, tk := range live {
			g.StartPeriodic(tk, 0)
		}
		s.RunFor(simtime.Seconds(4))
		for _, tk := range live {
			if st := tk.Stats(); st.Missed != 0 {
				t.Logf("seed %d: analysis said %v fits %v but simulation missed %d/%d (task %v)",
					seed, tasks, iface, st.Missed, st.Released, tk.Params())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
