package guest

import (
	"errors"
	"testing"

	"rtvirt/internal/hv"
	"rtvirt/internal/sched/dpwrap"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// rtvirtSetup builds a full RTVirt stack (DP-WRAP host) for guest-level
// integration tests that need realistic host behaviour.
func rtvirtSetup(t *testing.T, pcpus, vcpus int) (*sim.Simulator, *hv.Host, *OS) {
	t.Helper()
	s := sim.New(17)
	h := hv.NewHost(s, pcpus, dpwrap.New(dpwrap.DefaultConfig()), hv.CostModel{})
	g, err := NewOS(h, "vm0", DefaultConfig(), vcpus)
	if err != nil {
		t.Fatal(err)
	}
	return s, h, g
}

// TestBGAInsideRTVM: §3.1 — the guest scheduler addresses the timeliness
// of RTAs and schedules other background applications in the same VM. The
// BGA must neither disturb the RTA nor starve.
func TestBGAInsideRTVM(t *testing.T) {
	s, h, g := rtvirtSetup(t, 1, 1)
	rta := task.New(0, "rta", task.Periodic, pp(4, 10))
	bga := task.NewBackground(1, "bga")
	if err := g.Register(rta); err != nil {
		t.Fatal(err)
	}
	if err := g.Register(bga); err != nil {
		t.Fatal(err)
	}
	h.Start()
	g.StartPeriodic(rta, 0)
	g.ReleaseAt(bga, s.Now(), simtime.Seconds(100))
	s.RunFor(simtime.Seconds(5))
	h.Sync()
	if st := rta.Stats(); st.Missed != 0 {
		t.Fatalf("RTA missed %d deadlines beside an in-VM BGA", st.Missed)
	}
	// The BGA gets the leftover ≈60% (whole host is otherwise idle and the
	// VM soaks leftover work-conservingly).
	if bw := bga.Stats().TotalWork; bw < simtime.Seconds(2) {
		t.Fatalf("BGA got only %v of 5s", bw)
	}
}

// TestSporadicFloorFollowsSetAttr: changing a sporadic task's period must
// update the published worst-case floor.
func TestSporadicFloorFollowsSetAttr(t *testing.T) {
	_, _, g := rtvirtSetup(t, 1, 1)
	sp := task.New(0, "sp", task.Sporadic, pp(2, 40))
	if err := g.Register(sp); err != nil {
		t.Fatal(err)
	}
	v := g.VM().VCPUs[0]
	if v.SporadicFloor != simtime.Millis(40) {
		t.Fatalf("floor = %v", v.SporadicFloor)
	}
	if err := g.SetAttr(sp, pp(2, 20)); err != nil {
		t.Fatal(err)
	}
	if v.SporadicFloor != simtime.Millis(20) {
		t.Fatalf("floor after SetAttr = %v, want 20ms", v.SporadicFloor)
	}
}

// TestUnregisterWhileRunning: unregistering the task whose job is on-CPU
// must abandon it and keep the system consistent.
func TestUnregisterWhileRunning(t *testing.T) {
	s, h, g := rtvirtSetup(t, 1, 1)
	tk := task.New(0, "t", task.Periodic, pp(8, 10))
	if err := g.Register(tk); err != nil {
		t.Fatal(err)
	}
	h.Start()
	g.StartPeriodic(tk, 0)
	s.RunFor(simtime.Millis(3)) // mid-job
	if err := g.Unregister(tk); err != nil {
		t.Fatal(err)
	}
	st := tk.Stats()
	if st.Abandoned != 1 {
		t.Fatalf("abandoned = %d, want 1", st.Abandoned)
	}
	// The host continues cleanly; a new task is admissible immediately.
	nt := task.New(1, "n", task.Periodic, pp(5, 10))
	if err := g.Register(nt); err != nil {
		t.Fatal(err)
	}
	g.StartPeriodic(nt, s.Now())
	s.RunFor(simtime.Seconds(1))
	if nt.Stats().Missed != 0 {
		t.Fatalf("successor missed %d", nt.Stats().Missed)
	}
}

// TestSetAttrOnBackgroundTaskRejected: background tasks have no valid
// params to change.
func TestSetAttrOnBackgroundTaskRejected(t *testing.T) {
	_, _, g := rtvirtSetup(t, 1, 1)
	bg := task.NewBackground(0, "bg")
	if err := g.Register(bg); err != nil {
		t.Fatal(err)
	}
	if err := g.SetAttr(bg, task.Params{}); err == nil {
		t.Fatal("SetAttr with invalid params accepted")
	}
}

// TestRegisterInvalidParams: zero params are rejected with an error, not a
// panic.
func TestRegisterInvalidParams(t *testing.T) {
	_, _, g := rtvirtSetup(t, 1, 1)
	bad := &task.Task{ID: 9, Name: "bad", Kind: task.Periodic, VCPU: -1}
	if err := g.Register(bad); err == nil {
		t.Fatal("invalid params accepted")
	}
}

// TestHotplugRespectsHostCapacity: hotplug stops when the host rejects the
// extra bandwidth.
func TestHotplugRespectsHostCapacity(t *testing.T) {
	s := sim.New(17)
	h := hv.NewHost(s, 1, dpwrap.New(dpwrap.DefaultConfig()), hv.CostModel{})
	cfg := DefaultConfig()
	cfg.MaxVCPUs = 8
	cfg.Slack = 0
	g, err := NewOS(h, "vm0", cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	admitted := 0
	for i := 0; i < 8; i++ {
		tk := task.New(i, "t", task.Periodic, pp(3, 10))
		if err := g.Register(tk); err != nil {
			if !errors.Is(err, ErrHostRejected) && !errors.Is(err, ErrNoCapacity) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		admitted++
	}
	// 0.3 each on a 1-CPU host: exactly 3 fit.
	if admitted != 3 {
		t.Fatalf("admitted %d tasks, want 3", admitted)
	}
	if g.NumVCPUs() > 2 {
		t.Fatalf("hotplugged to %d VCPUs for 0.9 CPUs of tasks", g.NumVCPUs())
	}
}

// TestPrioritySlack: §6 — a higher-priority task's VCPU gets a
// proportionally larger slack, and thus a larger reservation.
func TestPrioritySlack(t *testing.T) {
	s := sim.New(17)
	h := hv.NewHost(s, 4, dpwrap.New(dpwrap.DefaultConfig()), hv.CostModel{})
	cfg := DefaultConfig()
	cfg.PrioritySlack = true
	cfg.Slack = simtime.Micros(200)
	g, err := NewOS(h, "vm0", cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	normal := task.New(0, "normal", task.Periodic, pp(5, 10))
	important := task.New(1, "important", task.Periodic, pp(5, 10))
	important.Priority = 3
	if err := g.RegisterOn(normal, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.RegisterOn(important, 1); err != nil {
		t.Fatal(err)
	}
	v0, v1 := g.VM().VCPUs[0], g.VM().VCPUs[1]
	if v0.Res.Budget != simtime.Millis(5)+simtime.Micros(200) {
		t.Fatalf("normal budget = %v", v0.Res.Budget)
	}
	// Priority 3 → 4× slack.
	if v1.Res.Budget != simtime.Millis(5)+simtime.Micros(800) {
		t.Fatalf("important budget = %v, want 5ms+800µs", v1.Res.Budget)
	}
}

// TestPrioritySlackSurvivesMove: a task that leaves a VCPU through
// INC_DEC_BW leaves the VCPU sized with the priority slack of the tasks
// that stay, exactly as deriving it afresh gives.
func TestPrioritySlackSurvivesMove(t *testing.T) {
	s := sim.New(17)
	h := hv.NewHost(s, 4, dpwrap.New(dpwrap.DefaultConfig()), hv.CostModel{})
	cfg := DefaultConfig()
	cfg.PrioritySlack = true
	cfg.Slack = simtime.Micros(200)
	g, err := NewOS(h, "vm0", cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	important := task.New(0, "important", task.Periodic, pp(3, 10))
	important.Priority = 3
	mover := task.New(1, "mover", task.Periodic, pp(2, 10))
	for _, tk := range []*task.Task{important, mover} {
		if err := g.RegisterOn(tk, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SetAttr(mover, pp(8, 10)); err != nil {
		t.Fatal(err)
	}
	if mover.VCPU != 1 {
		t.Fatalf("mover on VCPU %d, want a move to VCPU 1", mover.VCPU)
	}
	v0 := g.VM().VCPUs[0]
	// Priority 3 → 4× slack stays on the VCPU important keeps.
	if want := simtime.Millis(3) + simtime.Micros(800); v0.Res.Budget != want {
		t.Fatalf("VCPU 0 budget after the move = %v, want %v", v0.Res.Budget, want)
	}
	if fresh := g.deriveRes(g.vcpus[0], nil, nil); v0.Res != fresh {
		t.Fatalf("VCPU 0 holds %v, deriving afresh gives %v", v0.Res, fresh)
	}
}

// TestGuestShutdown removes the VM and frees every host resource.
func TestGuestShutdown(t *testing.T) {
	s, h, g := rtvirtSetup(t, 1, 2)
	a := task.New(0, "a", task.Periodic, pp(4, 10))
	if err := g.Register(a); err != nil {
		t.Fatal(err)
	}
	h.Start()
	g.StartPeriodic(a, 0)
	s.RunFor(simtime.Millis(25))
	if err := g.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if len(h.VMs()) != 0 || len(h.VCPUs()) != 0 {
		t.Fatalf("host still holds %d VMs / %d VCPUs", len(h.VMs()), len(h.VCPUs()))
	}
	// A replacement VM gets the full host.
	g2, err := NewOS(h, "next", DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	b := task.New(1, "b", task.Periodic, pp(9, 10))
	if err := g2.Register(b); err != nil {
		t.Fatal(err)
	}
	g2.StartPeriodic(b, s.Now())
	s.RunFor(simtime.Seconds(1))
	if st := b.Stats(); st.Missed != 0 {
		t.Fatalf("replacement missed %d", st.Missed)
	}
}
