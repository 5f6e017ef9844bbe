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

// Property: reservation isolation. N always-hungry VMs with random
// reservations filling the host each receive at least their reserved share
// of CPU time over a long window, regardless of how greedy the others are.
// This is the supply guarantee everything else in RTVirt rests on.
func TestQuickReservationIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("long property test")
	}
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		m := 1 + rng.Intn(3)
		s := sim.New(seed)
		sched := New(DefaultConfig())
		h := hv.NewHost(s, m, sched, hv.CostModel{})
		budget := 0.95 * float64(m)

		type vmInfo struct {
			g  *guest.OS
			tk *task.Task
			bw float64
		}
		var vms []vmInfo
		id := 0
		for budget > 0.1 && id < 9 {
			period := simtime.Millis(5 + rng.Int63n(45))
			maxBW := budget
			if maxBW > 0.85 {
				maxBW = 0.85
			}
			bw := 0.08 + rng.Float64()*(maxBW-0.08)
			slice := simtime.Duration(bw * float64(period))
			gc := guest.DefaultConfig()
			gc.Slack = 0
			g, err := guest.NewOS(h, fmt.Sprintf("vm%d", id), gc, 1)
			if err != nil {
				return false
			}
			// The task declares (slice, period) but its jobs are hungrier
			// than the reservation: each job demands twice its slice, so
			// the VM is perpetually backlogged and must be policed down to
			// exactly its reserved share.
			tk := task.New(id, fmt.Sprintf("t%d", id), task.Periodic,
				task.Params{Slice: slice, Period: period})
			if err := g.Register(tk); err != nil {
				break
			}
			g.SetDemand(tk, 2*slice)
			vms = append(vms, vmInfo{g: g, tk: tk, bw: tk.Params().Bandwidth()})
			budget -= bw
			id++
		}
		if len(vms) < 2 {
			return true
		}
		h.Start()
		for _, vm := range vms {
			vm.g.StartPeriodic(vm.tk, 0)
		}
		dur := simtime.Seconds(5)
		s.RunFor(dur)
		h.Sync()
		// Each VM must have received at least its reserved share minus a
		// small tolerance (startup + final partial slice), and the host
		// must be fully utilized (work conservation with backlog).
		var total simtime.Duration
		for _, vm := range vms {
			got := vm.g.VM().TotalRun()
			entitled := simtime.Duration(vm.bw * float64(dur))
			if got < entitled-simtime.Millis(100) {
				t.Logf("seed %d: %s got %v, entitled %v (bw %.3f)",
					seed, vm.g.VM().Name, got, entitled, vm.bw)
				return false
			}
			total += got
		}
		// Work conservation: a fully backlogged host leaves almost nothing
		// idle.
		if total < simtime.Duration(float64(m)*float64(dur))*95/100 {
			t.Logf("seed %d: host used only %v of %d CPUs × %v", seed, total, m, dur)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
