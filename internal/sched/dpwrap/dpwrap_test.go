package dpwrap

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

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

// rig creates a host running DP-WRAP with zero platform costs (timing
// assertions become exact) unless costs is non-nil.
func rig(t *testing.T, pcpus int, costs *hv.CostModel) (*sim.Simulator, *hv.Host, *Scheduler) {
	t.Helper()
	s := sim.New(3)
	c := hv.CostModel{}
	if costs != nil {
		c = *costs
	}
	sched := New(DefaultConfig())
	h := hv.NewHost(s, pcpus, sched, c)
	return s, h, sched
}

func newGuest(t *testing.T, h *hv.Host, name string, vcpus int, slack simtime.Duration) *guest.OS {
	t.Helper()
	cfg := guest.DefaultConfig()
	cfg.Slack = slack
	g, err := guest.NewOS(h, name, cfg, vcpus)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSingleRTANoMisses(t *testing.T) {
	s, h, _ := rig(t, 1, nil)
	g := newGuest(t, h, "vm0", 1, simtime.Micros(500))
	tk := task.New(0, "rta", task.Periodic, pp(5, 10))
	if err := g.Register(tk); err != nil {
		t.Fatal(err)
	}
	h.Start()
	g.StartPeriodic(tk, 0)
	s.RunFor(simtime.Seconds(10))
	st := tk.Stats()
	if st.Missed != 0 {
		t.Fatalf("missed %d of %d deadlines", st.Missed, st.Released)
	}
	if st.Completed < 990 {
		t.Fatalf("completed only %d jobs", st.Completed)
	}
}

func TestFigure1ScenarioAllDeadlinesMet(t *testing.T) {
	// The motivating example (§2): VM1 hosts RTA1 (1,15) and RTA2 (4,15)
	// released out of phase, contending with VM2 and VM3. Plain two-level
	// EDF misses every other RTA2 deadline; RTVirt must meet all of them.
	// VM2 runs (4.5,10) rather than the paper's (5,10) to leave room for
	// the budget slack that the real system also requires (§4.1) — at
	// exactly 100% utilization with zero slack, nanosecond allocation
	// residue is unavoidable in any implementation.
	s, h, _ := rig(t, 1, nil)
	slack := simtime.Micros(100)
	g1 := newGuest(t, h, "vm1", 1, slack)
	g2 := newGuest(t, h, "vm2", 1, slack)
	g3 := newGuest(t, h, "vm3", 1, slack)
	rta1 := task.New(0, "rta1", task.Periodic, pp(1, 15))
	rta2 := task.New(1, "rta2", task.Periodic, pp(4, 15))
	rta3 := task.New(2, "vm2-rta", task.Periodic, task.Params{Slice: simtime.Micros(4500), Period: ms(10)})
	rta4 := task.New(3, "vm3-rta", task.Periodic, pp(5, 30))
	for _, reg := range []struct {
		g *guest.OS
		t *task.Task
	}{{g1, rta1}, {g1, rta2}, {g2, rta3}, {g3, rta4}} {
		if err := reg.g.Register(reg.t); err != nil {
			t.Fatal(err)
		}
	}
	h.Start()
	g1.StartPeriodic(rta1, 0)
	// Out of phase, as in Fig. 1b; phase 2 is the alignment under which the
	// uncoordinated two-level EDF baseline misses every RTA2 deadline (see
	// the rtxen package's Figure-1 test).
	g1.StartPeriodic(rta2, simtime.Time(ms(2)))
	g2.StartPeriodic(rta3, 0)
	g3.StartPeriodic(rta4, 0)
	s.RunFor(simtime.Seconds(30))
	for _, tk := range []*task.Task{rta1, rta2, rta3, rta4} {
		if st := tk.Stats(); st.Missed != 0 {
			t.Errorf("%s missed %d/%d deadlines", tk.Name, st.Missed, st.Released)
		}
	}
}

func TestHighUtilizationMultiprocessor(t *testing.T) {
	// DP-WRAP optimality: 3 VMs with total task bandwidth 1.9 of 2 PCPUs
	// (plus a small slack, as the real system runs) — all deadlines met.
	s, h, _ := rig(t, 2, nil)
	params := []task.Params{pp(5, 10), pp(12, 20), pp(24, 30)} // 0.5+0.6+0.8 = 1.9
	var tasks []*task.Task
	var guests []*guest.OS
	for i, p := range params {
		g := newGuest(t, h, fmt.Sprintf("vm%d", i), 1, simtime.Micros(100))
		tk := task.New(i, fmt.Sprintf("rta%d", i), task.Periodic, p)
		if err := g.Register(tk); err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, tk)
		guests = append(guests, g)
	}
	h.Start()
	for i, tk := range tasks {
		guests[i].StartPeriodic(tk, 0)
	}
	s.RunFor(simtime.Seconds(20))
	for _, tk := range tasks {
		if st := tk.Stats(); st.Missed != 0 {
			t.Errorf("%s missed %d/%d", tk.Name, st.Missed, st.Released)
		}
	}
}

func TestAdmissionRejectsOverCapacity(t *testing.T) {
	_, h, _ := rig(t, 1, nil)
	g := newGuest(t, h, "vm0", 2, 0)
	a := task.New(0, "a", task.Periodic, pp(7, 10))
	b := task.New(1, "b", task.Periodic, pp(6, 10))
	if err := g.Register(a); err != nil {
		t.Fatal(err)
	}
	err := g.Register(b) // 1.3 CPUs on a 1-CPU host
	if err == nil {
		t.Fatal("over-capacity registration was admitted")
	}
	if !errors.Is(err, guest.ErrHostRejected) && !errors.Is(err, guest.ErrNoCapacity) {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestMigrationBound(t *testing.T) {
	// DP-WRAP migrates at most m−1 VCPUs per global slice.
	s, h, sched := rig(t, 3, nil)
	var tasks []*task.Task
	var guests []*guest.OS
	// 2.7 CPUs of single-RTA VMs.
	for i := 0; i < 9; i++ {
		g := newGuest(t, h, fmt.Sprintf("vm%d", i), 1, 0)
		tk := task.New(i, fmt.Sprintf("r%d", i), task.Periodic, pp(3, 10))
		if err := g.Register(tk); err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, tk)
		guests = append(guests, g)
	}
	h.Start()
	for i, tk := range tasks {
		guests[i].StartPeriodic(tk, 0)
	}
	s.RunFor(simtime.Seconds(5))
	// Within a slice at most m−1 VCPUs are split; a split VCPU also moves
	// back at the next slice boundary, so the meter sees ≤ 2(m−1) PCPU
	// changes per slice.
	maxMig := 2 * (uint64(h.NumPCPUs()) - 1) * sched.Boundaries
	if h.Overhead.Migrations > maxMig {
		t.Fatalf("migrations = %d exceeds 2(m-1)×slices = %d", h.Overhead.Migrations, maxMig)
	}
	for _, tk := range tasks {
		if st := tk.Stats(); st.Missed != 0 {
			t.Errorf("%s missed %d/%d", tk.Name, st.Missed, st.Released)
		}
	}
}

func TestSporadicMeetsDeadline(t *testing.T) {
	s, h, _ := rig(t, 1, nil)
	g := newGuest(t, h, "vm0", 1, simtime.Micros(500))
	sp := task.New(0, "sp", task.Sporadic, pp(5, 50))
	if err := g.Register(sp); err != nil {
		t.Fatal(err)
	}
	// Contending periodic VM taking most of the CPU.
	g2 := newGuest(t, h, "vm1", 1, simtime.Micros(500))
	per := task.New(1, "per", task.Periodic, pp(40, 50))
	if err := g2.Register(per); err != nil {
		t.Fatal(err)
	}
	h.Start()
	g2.StartPeriodic(per, 0)
	// Fire sporadic requests at awkward instants.
	for _, at := range []int64{13, 113, 217, 331, 449, 500, 617} {
		g.ReleaseAt(sp, simtime.Time(ms(at)), 0)
	}
	s.RunFor(simtime.Seconds(1))
	if st := sp.Stats(); st.Missed != 0 || st.Completed != 7 {
		t.Fatalf("sporadic: %+v", st)
	}
	if st := per.Stats(); st.Missed != 0 {
		t.Fatalf("periodic missed %d", st.Missed)
	}
}

func TestBackgroundVMGetsLeftover(t *testing.T) {
	s, h, _ := rig(t, 1, nil)
	g := newGuest(t, h, "rt", 1, 0)
	tk := task.New(0, "rta", task.Periodic, pp(5, 10)) // 50%
	if err := g.Register(tk); err != nil {
		t.Fatal(err)
	}
	// Background VM with one CPU-hog.
	gbg := newGuest(t, h, "bg", 1, 0)
	hog := task.NewBackground(1, "hog")
	if err := gbg.Register(hog); err != nil {
		t.Fatal(err)
	}
	h.Start()
	g.StartPeriodic(tk, 0)
	gbg.ReleaseAt(hog, s.Now(), simtime.Seconds(100)) // effectively infinite
	s.RunFor(simtime.Seconds(10))
	h.Sync()
	if st := tk.Stats(); st.Missed != 0 {
		t.Fatalf("RT missed %d deadlines with background load", st.Missed)
	}
	bgRun := gbg.VM().TotalRun()
	// The hog should get roughly the leftover 50% of the CPU.
	if bgRun < simtime.Seconds(4) || bgRun > simtime.Seconds(6) {
		t.Fatalf("background got %v of 10s, want ≈5s", bgRun)
	}
}

func TestDynamicBandwidthChange(t *testing.T) {
	s, h, _ := rig(t, 1, nil)
	g := newGuest(t, h, "vm0", 1, 0)
	tk := task.New(0, "rta", task.Periodic, pp(2, 10))
	if err := g.Register(tk); err != nil {
		t.Fatal(err)
	}
	h.Start()
	g.StartPeriodic(tk, 0)
	s.RunFor(simtime.Seconds(2))
	if err := g.SetAttr(tk, pp(8, 10)); err != nil {
		t.Errorf("SetAttr: %v", err)
	}
	s.RunFor(simtime.Seconds(3))
	if st := tk.Stats(); st.Missed > 1 {
		// One miss is tolerated at the transition instant (the job in
		// flight was released under the old parameters).
		t.Fatalf("missed %d deadlines across bandwidth change", st.Missed)
	}
	if got := g.AllocatedBandwidth(); got != 0.8 {
		t.Fatalf("allocated bandwidth = %g, want 0.8", got)
	}
}

func TestUnregisterFreesHostBandwidth(t *testing.T) {
	s, h, _ := rig(t, 1, nil)
	g := newGuest(t, h, "vm0", 1, 0)
	a := task.New(0, "a", task.Periodic, pp(9, 10))
	if err := g.Register(a); err != nil {
		t.Fatal(err)
	}
	h.Start()
	g.StartPeriodic(a, 0)
	s.RunFor(simtime.Seconds(1))
	if err := g.Unregister(a); err != nil {
		t.Fatal(err)
	}
	// Now a second VM with 0.9 must be admissible.
	g2 := newGuest(t, h, "vm1", 1, 0)
	b := task.New(1, "b", task.Periodic, pp(9, 10))
	if err := g2.Register(b); err != nil {
		t.Fatalf("register after unregister: %v", err)
	}
	g2.StartPeriodic(b, s.Now())
	s.RunFor(simtime.Seconds(2))
	if st := b.Stats(); st.Missed != 0 {
		t.Fatalf("b missed %d", st.Missed)
	}
}

func TestMinSliceClamped(t *testing.T) {
	s, h, sched := rig(t, 1, nil)
	g := newGuest(t, h, "vm0", 1, simtime.Micros(500))
	// Period 500µs — only 2× the min slice.
	tk := task.New(0, "fast", task.Periodic, task.Params{Slice: simtime.Micros(100), Period: simtime.Micros(500)})
	if err := g.Register(tk); err != nil {
		t.Fatal(err)
	}
	h.Start()
	g.StartPeriodic(tk, 0)
	s.RunFor(simtime.Seconds(1))
	if sched.Boundaries == 0 {
		t.Fatal("no boundaries recorded")
	}
	if avg := sched.SlicesTotal / simtime.Duration(sched.Boundaries); avg < simtime.Micros(250) {
		t.Fatalf("average slice %v below the 250µs minimum", avg)
	}
	if st := tk.Stats(); float64(st.Missed)/float64(st.Judged()) > 0.01 {
		t.Fatalf("fast task missed %d/%d", st.Missed, st.Judged())
	}
}

func TestIncDecBWRollback(t *testing.T) {
	_, h, sched := rig(t, 1, nil)
	g := newGuest(t, h, "vm0", 2, 0)
	a := task.New(0, "a", task.Periodic, pp(5, 10))
	if err := g.Register(a); err != nil {
		t.Fatal(err)
	}
	h.Start()
	v0, v1 := g.VM().VCPUs[0], g.VM().VCPUs[1]
	// Hand-issue an INC_DEC_BW that must fail: dec v0 a bit, inc v1 beyond
	// capacity. The dec must be rolled back.
	before := v0.Res
	err := sched.HandleHypercall(hv.Hypercall{
		Flag:   hv.IncDecBW,
		VCPU:   v1,
		Res:    hv.Reservation{Budget: ms(9), Period: ms(10)},
		Dec:    v0,
		DecRes: hv.Reservation{Budget: ms(2), Period: ms(10)},
	}, h.Sim.Now())
	if err == nil {
		t.Fatal("over-capacity INC_DEC_BW accepted")
	}
	if v0.Res != before {
		t.Fatalf("dec not rolled back: %v, want %v", v0.Res, before)
	}
}

// Property: any randomly generated periodic task set with utilization
// ≤ 90% of the host plus a small slack meets the paper's timeliness claim
// under the RTVirt stack: at least 99% of all deadlines met, and any miss
// is tightly bounded. The guests run the paper's full 500µs budget slack
// (§4.1), which absorbs the sub-millisecond split-VCPU blocking residue
// inherent to work-conserving DP-WRAP.
func TestQuickOptimality(t *testing.T) {
	if testing.Short() {
		t.Skip("long property test")
	}
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		m := 1 + rng.Intn(3)
		s := sim.New(seed)
		sched := New(DefaultConfig())
		h := hv.NewHost(s, m, sched, hv.CostModel{})
		budget := 0.70 * float64(m)
		var tasks []*task.Task
		var guests []*guest.OS
		id := 0
		for budget > 0.1 && id < 12 {
			period := ms(5 + rng.Int63n(95))
			maxBW := budget
			if maxBW > 0.9 {
				maxBW = 0.9
			}
			bw := 0.05 + rng.Float64()*(maxBW-0.05)
			slice := simtime.Duration(bw * float64(period))
			if slice < simtime.Micros(100) {
				slice = simtime.Micros(100)
			}
			cfg := guest.DefaultConfig()
			cfg.Slack = simtime.Micros(500)
			g, err := guest.NewOS(h, fmt.Sprintf("vm%d", id), cfg, 1)
			if err != nil {
				return false
			}
			tk := task.New(id, fmt.Sprintf("t%d", id), task.Periodic,
				task.Params{Slice: slice, Period: period})
			if err := g.Register(tk); err != nil {
				// Admission rejected the slack-inflated reservation: the
				// host is full, stop adding load.
				break
			}
			budget -= tk.Params().Bandwidth()
			tasks = append(tasks, tk)
			guests = append(guests, g)
			id++
		}
		h.Start()
		for i, tk := range tasks {
			guests[i].StartPeriodic(tk, simtime.Time(rng.Int63n(int64(ms(20)))))
		}
		s.RunFor(simtime.Seconds(5))
		var missed, judged int
		var worstLate simtime.Duration
		for _, tk := range tasks {
			st := tk.Stats()
			missed += st.Missed
			judged += st.Judged()
			if st.MaxLateness > worstLate {
				worstLate = st.MaxLateness
			}
		}
		if judged == 0 {
			return true
		}
		ratio := float64(missed) / float64(judged)
		if ratio > 0.01 || worstLate > simtime.Millis(1) {
			t.Logf("seed %d: miss ratio %.4f (%d/%d), worst lateness %v",
				seed, ratio, missed, judged, worstLate)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
