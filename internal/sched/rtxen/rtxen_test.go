package rtxen

import (
	"fmt"
	"testing"

	"rtvirt/internal/guest"
	"rtvirt/internal/hv"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

func ms(n int64) simtime.Duration { return simtime.Millis(n) }

func pp(s, p int64) task.Params {
	return task.Params{Slice: ms(s), Period: ms(p)}
}

func res(b, p int64) hv.Reservation {
	return hv.Reservation{Budget: ms(b), Period: ms(p)}
}

// newRig builds a host with the RT-Xen scheduler and zero platform costs.
func newRig(t *testing.T, pcpus int) (*sim.Simulator, *hv.Host) {
	t.Helper()
	s := sim.New(5)
	h := hv.NewHost(s, pcpus, New(DefaultConfig()), hv.CostModel{})
	return s, h
}

// newServerVM creates a VM with one VCPU configured as a (budget, period)
// deferrable server, with a static (non-cross-layer) guest.
func newServerVM(t testing.TB, h *hv.Host, name string, r hv.Reservation) *guest.OS {
	t.Helper()
	cfg := guest.Config{CrossLayer: false, VCPUCapacity: 1.0}
	g, err := guest.NewOS(h, name, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddVCPU(r, 256); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestServerMeetsDeadlinesWhenProvisioned(t *testing.T) {
	s, h := newRig(t, 1)
	g := newServerVM(t, h, "vm0", res(5, 10))
	tk := task.New(0, "rta", task.Periodic, pp(4, 10))
	if err := g.RegisterOn(tk, 0); err != nil {
		t.Fatal(err)
	}
	h.Start()
	g.StartPeriodic(tk, 0)
	s.RunFor(simtime.Seconds(5))
	if st := tk.Stats(); st.Missed != 0 {
		t.Fatalf("missed %d/%d with a sufficient server", st.Missed, st.Released)
	}
}

func TestServerBudgetEnforced(t *testing.T) {
	// Task needs 6ms/10ms but the server only provides 4ms/10ms: most
	// deadlines must be missed, and the task must not starve competitors.
	s, h := newRig(t, 1)
	g := newServerVM(t, h, "starved", res(4, 10))
	g2 := newServerVM(t, h, "other", res(5, 10))
	tk := task.New(0, "big", task.Periodic, pp(6, 10))
	// Bypass guest admission (task bw 0.6 > server 0.4 is exactly the
	// misconfiguration we want): register against a permissive capacity.
	cfg := g.Config()
	_ = cfg
	if err := g.RegisterOn(tk, 0); err != nil {
		t.Fatal(err)
	}
	other := task.New(1, "ok", task.Periodic, pp(4, 10))
	if err := g2.RegisterOn(other, 0); err != nil {
		t.Fatal(err)
	}
	h.Start()
	g.StartPeriodic(tk, 0)
	g2.StartPeriodic(other, 0)
	s.RunFor(simtime.Seconds(2))
	if st := tk.Stats(); st.MissRatio() < 0.5 {
		t.Fatalf("under-provisioned task missed only %.2f%%", 100*st.MissRatio())
	}
	if st := other.Stats(); st.Missed != 0 {
		t.Fatalf("well-provisioned neighbour missed %d deadlines", st.Missed)
	}
}

func TestDeferrableServerServesLateArrival(t *testing.T) {
	// The server idles early in its period; a job arriving mid-period is
	// served from the retained budget (deferrable property).
	s, h := newRig(t, 1)
	g := newServerVM(t, h, "vm0", res(5, 10))
	sp := task.New(0, "sp", task.Sporadic, pp(3, 10))
	if err := g.RegisterOn(sp, 0); err != nil {
		t.Fatal(err)
	}
	h.Start()
	// Arrive 4ms into the server period; budget must still be 5ms.
	g.ReleaseAt(sp, simtime.Time(ms(14)), 0)
	s.RunFor(simtime.Seconds(1))
	st := sp.Stats()
	if st.Completed != 1 || st.Missed != 0 {
		t.Fatalf("sporadic stats: %+v", st)
	}
}

func TestGlobalEDFUsesBothPCPUs(t *testing.T) {
	s, h := newRig(t, 2)
	var tasks []*task.Task
	var guests []*guest.OS
	for i := 0; i < 3; i++ {
		g := newServerVM(t, h, fmt.Sprintf("vm%d", i), res(6, 10))
		tk := task.New(i, fmt.Sprintf("t%d", i), task.Periodic, pp(5, 10))
		if err := g.RegisterOn(tk, 0); err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, tk)
		guests = append(guests, g)
	}
	h.Start()
	for i, tk := range tasks {
		guests[i].StartPeriodic(tk, 0)
	}
	s.RunFor(simtime.Seconds(2))
	// 3 × 0.5 task load on 2 PCPUs via 0.6 servers under gEDF: with these
	// harmonic parameters gEDF schedules the servers without misses.
	for _, tk := range tasks {
		if st := tk.Stats(); st.Missed != 0 {
			t.Errorf("%s missed %d/%d", tk.Name, st.Missed, st.Released)
		}
	}
}

func TestAdmissionRejectsOverUtilization(t *testing.T) {
	_, h := newRig(t, 1)
	newServerVM(t, h, "a", res(7, 10))
	cfg := guest.Config{CrossLayer: false, VCPUCapacity: 1.0}
	g, err := guest.NewOS(h, "b", cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddVCPU(res(6, 10), 256); err == nil {
		t.Fatal("1.3 CPUs of servers admitted on a 1-CPU host")
	}
}

func TestFigure1BaselineMissesWithoutCrossLayer(t *testing.T) {
	// The motivating example (§2, Figure 1): VM1 (server 5,15) hosting
	// RTA1 (1,15) and RTA2 (4,15, released out of phase), VM2 (5,10),
	// VM3 (5,30). Both levels use EDF but cannot coordinate: RTA2 misses
	// roughly every other deadline. The figure's VMM is a plain EDF
	// scheduler, i.e. polling servers. (Under RTVirt the same workload
	// meets every deadline — see the dpwrap package tests.)
	s := sim.New(5)
	h := hv.NewHost(s, 1, New(Config{Deferrable: false}), hv.CostModel{})
	g1 := newServerVM(t, h, "vm1", res(5, 15))
	g2 := newServerVM(t, h, "vm2", res(5, 10))
	g3 := newServerVM(t, h, "vm3", res(5, 30))
	rta1 := task.New(0, "rta1", task.Periodic, pp(1, 15))
	rta2 := task.New(1, "rta2", task.Periodic, pp(4, 15))
	rta3 := task.New(2, "vm2-rta", task.Periodic, pp(5, 10))
	rta4 := task.New(3, "vm3-rta", task.Periodic, pp(5, 30))
	for _, r := range []struct {
		g *guest.OS
		t *task.Task
	}{{g1, rta1}, {g1, rta2}, {g2, rta3}, {g3, rta4}} {
		if err := r.g.RegisterOn(r.t, 0); err != nil {
			t.Fatal(err)
		}
	}
	h.Start()
	g1.StartPeriodic(rta1, 0)
	g1.StartPeriodic(rta2, simtime.Time(ms(2)))
	g2.StartPeriodic(rta3, 0)
	g3.StartPeriodic(rta4, 0)
	s.RunFor(simtime.Seconds(30))
	if ratio := rta2.Stats().MissRatio(); ratio < 0.25 {
		t.Fatalf("RTA2 missed only %.1f%% under uncoordinated two-level EDF; the"+
			" motivating problem should be visible", 100*ratio)
	}
	if rta1.Stats().MissRatio() > 0.05 {
		t.Fatalf("RTA1 (aligned with its VM) missed %.1f%%", 100*rta1.Stats().MissRatio())
	}
}

func TestBackgroundVMRunsOnLeftover(t *testing.T) {
	s, h := newRig(t, 1)
	g := newServerVM(t, h, "rt", res(5, 10))
	tk := task.New(0, "rta", task.Periodic, pp(5, 10))
	if err := g.RegisterOn(tk, 0); err != nil {
		t.Fatal(err)
	}
	cfg := guest.Config{CrossLayer: false, VCPUCapacity: 1.0}
	gbg, err := guest.NewOS(h, "bg", cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	hog := task.NewBackground(1, "hog")
	if err := gbg.Register(hog); err != nil {
		t.Fatal(err)
	}
	h.Start()
	g.StartPeriodic(tk, 0)
	gbg.ReleaseAt(hog, s.Now(), simtime.Seconds(100))
	s.RunFor(simtime.Seconds(4))
	h.Sync()
	if st := tk.Stats(); st.Missed != 0 {
		t.Fatalf("RT missed %d with background load", st.Missed)
	}
	bgRun := gbg.VM().TotalRun()
	if bgRun < simtime.Millis(1500) || bgRun > simtime.Millis(2500) {
		t.Fatalf("background got %v of 4s, want ≈2s", bgRun)
	}
}

func TestUpdateVCPUClampsBudget(t *testing.T) {
	s, h := newRig(t, 1)
	g := newServerVM(t, h, "vm", res(8, 10))
	h.Start()
	v := g.VM().VCPUs[0]
	if err := h.Scheduler().UpdateVCPU(v, res(2, 10), s.Now()); err != nil {
		t.Fatal(err)
	}
	if v.Res != res(2, 10) {
		t.Fatalf("reservation = %v", v.Res)
	}
	sched := h.Scheduler().(*Scheduler)
	if st := sched.state(v); st.budget > ms(2) {
		t.Fatalf("budget %v not clamped to new reservation", st.budget)
	}
}

func TestQuantumDrivenOverheadAccrues(t *testing.T) {
	s := sim.New(5)
	costs := hv.CostModel{ScheduleBase: hv.ConstCost(simtime.Microsecond)}
	h := hv.NewHost(s, 1, New(DefaultConfig()), costs)
	g := newServerVM(t, h, "vm", res(9, 10))
	tk := task.New(0, "busy", task.Periodic, pp(8, 10))
	if err := g.RegisterOn(tk, 0); err != nil {
		t.Fatal(err)
	}
	h.Start()
	g.StartPeriodic(tk, 0)
	s.RunFor(simtime.Seconds(1))
	// Quantum-driven: roughly one schedule call per 1ms quantum of busy
	// time (800ms busy → ≥ 700 calls even before wake/replenish extras).
	if h.Overhead.ScheduleCalls < 700 {
		t.Fatalf("only %d schedule calls; quantum-driven accounting missing", h.Overhead.ScheduleCalls)
	}
}
