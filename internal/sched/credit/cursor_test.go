package credit

import (
	"fmt"
	"testing"

	"rtvirt/internal/guest"
	"rtvirt/internal/hv"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
	"rtvirt/internal/workload"
)

// refPick is the walk Schedule made before the band bitmaps, kept as the
// reference they must match: every ring member from the cursor in turn,
// eligible when runnable and on no PCPU or on this one, the first of the
// best band winning and a BOOST ending the walk. It returns the pick, the
// scan length and the next cursor (meaningful only with a pick).
func refPick(s *Scheduler, pid int32) (best int32, work, next int) {
	n := len(s.vcpus)
	best, bestPrio := -1, prioOver+1
	hot := s.h.Hot()
	j := 0
	if n > 0 {
		j = s.cursor % n
	}
	for i := 0; i < n; i++ {
		id := s.vcpus[j]
		if j++; j == n {
			j = 0
		}
		work++
		if hs := hot[id]; !hs.Runnable || (hs.PCPU >= 0 && hs.PCPU != pid) {
			continue
		}
		if pr := prio(&s.st[id]); pr < bestPrio && pr != prioParked {
			best, bestPrio, next = id, pr, j
			if pr == prioBoost {
				break
			}
		}
	}
	return best, work, next
}

// checked wraps the scheduler so that every Schedule call the kernel makes
// is first answered by refPick on the same state; the bitmap pick must
// agree on the VCPU, Decision.Work and the next cursor.
type checked struct {
	*Scheduler
	t     testing.TB
	picks int
	// boosts counts the picks made from the BOOST band, whose Work is
	// the scan length up to the pick rather than the whole ring.
	boosts int
}

func (c *checked) Schedule(p *hv.PCPU, now simtime.Time) hv.Decision {
	s := c.Scheduler
	// Schedule's prologue, so the reference sees the settled credits.
	if cur := p.Current(); cur != nil && s.managed(cur) {
		s.settle(cur, now)
		s.st[cur.ID].runningOn = -1
	}
	want, wantWork, wantNext := refPick(s, int32(p.ID))
	if want < 0 {
		wantNext = s.cursor
	} else if prio(&s.st[want]) == prioBoost {
		c.boosts++
	}
	d := s.Schedule(p, now)
	got := int32(-1)
	if d.VCPU != nil {
		got = int32(d.VCPU.ID)
	}
	if got != want || d.Work != wantWork || s.cursor != wantNext {
		c.t.Fatalf("pick %d at %v on pcpu%d: VCPU %d (work %d, cursor %d), want VCPU %d (work %d, cursor %d)",
			c.picks, now, p.ID, got, d.Work, s.cursor, want, wantWork, wantNext)
	}
	c.picks++
	return d
}

// newChecked builds a host on a reference-checked Credit scheduler.
func newChecked(t *testing.T, pcpus int, cfg Config, costs hv.CostModel) (*sim.Simulator, *hv.Host, *checked) {
	t.Helper()
	s := sim.New(1)
	c := &checked{Scheduler: New(cfg), t: t}
	return s, hv.NewHost(s, pcpus, c, costs), c
}

// fig5aCredit is Figure 5a's Credit arm: two PCPUs with the §4.4
// parameters (1ms timeslice, 500µs ratelimit) and the arm's 30µs schedule
// and switch costs, one memcached VM of weight 727 and 19 CPU-hog VMs of
// weight 256. It returns the started host.
func fig5aCredit(tb testing.TB, newHost func(cfg Config, costs hv.CostModel) *hv.Host) *hv.Host {
	cfg := DefaultConfig()
	cfg.Timeslice = simtime.Millis(1)
	cfg.Ratelimit = simtime.Micros(500)
	costs := hv.DefaultCosts()
	costs.ScheduleBase = hv.ConstCost(simtime.Micros(30))
	costs.SetContextSwitch(hv.ConstCost(simtime.Micros(30)))
	h := newHost(cfg, costs)
	weighted := func(name string, weight int) *guest.OS {
		g, err := guest.NewOS(h, name, guest.Config{VCPUCapacity: 1e9}, 0)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := g.AddVCPU(hv.Reservation{Period: ms(10)}, weight); err != nil {
			tb.Fatal(err)
		}
		return g
	}
	mc, err := workload.NewMemcached(weighted("mc0", 727), 1000, workload.DefaultMemcachedConfig())
	if err != nil {
		tb.Fatal(err)
	}
	var hogs []*workload.CPUHog
	for i := 0; i < 19; i++ {
		hog, err := workload.NewCPUHog(weighted(fmt.Sprintf("bg%d", i), 256), 2000+i, fmt.Sprintf("hog%d", i))
		if err != nil {
			tb.Fatal(err)
		}
		hogs = append(hogs, hog)
	}
	h.Start()
	mc.Start(0)
	for _, hog := range hogs {
		hog.Start(0)
	}
	return h
}

// mixedVMs adds n one-VCPU VMs to h: every third a sporadic server that
// sleeps between short jobs (so it wakes BOOSTed), every fifth capped at
// 30% of a PCPU (so it parks), the rest CPU hogs. Weights vary so the
// bands move at different rates. It returns the guests for startMixed.
func mixedVMs(t *testing.T, h *hv.Host, n int) []*guest.OS {
	t.Helper()
	var gs []*guest.OS
	for i := 0; i < n; i++ {
		res := hv.Reservation{Period: ms(10)}
		if i%5 == 4 {
			res.Budget = ms(3)
		}
		g, err := guest.NewOS(h, fmt.Sprintf("vm%d", i), guest.Config{VCPUCapacity: 1e9}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.AddVCPU(res, 128+64*(i%7)); err != nil {
			t.Fatal(err)
		}
		var tk *task.Task
		if i%3 == 0 {
			tk = task.New(i, fmt.Sprintf("srv%d", i), task.Periodic,
				task.Params{Slice: simtime.Micros(200 + 50*int64(i%4)), Period: ms(3 + int64(i%5))})
		} else {
			tk = task.NewBackground(i, fmt.Sprintf("hog%d", i))
		}
		if err := g.Register(tk); err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	return gs
}

// startMixed releases mixedVMs' tasks at now.
func startMixed(s *sim.Simulator, gs []*guest.OS) {
	for _, g := range gs {
		for _, tk := range g.Tasks() {
			if tk.Kind == task.Background {
				g.ReleaseAt(tk, s.Now(), simtime.Seconds(10000))
			} else {
				g.StartPeriodic(tk, s.Now())
			}
		}
	}
}

// TestCreditPicksMatchReference runs Credit hosts with every Schedule call
// checked against refPick: Figure 5a's Credit arm, capped VCPUs that park,
// sampled accounting, removals that leave the cursor past the end of the
// ring, and a ring of more than 64 VCPUs, so the bitmaps span words.
func TestCreditPicksMatchReference(t *testing.T) {
	// Each case must reach both kinds of pick: a BOOST that ends the walk
	// early, and a pick from a lower band after a whole-ring walk.
	done := func(t *testing.T, c *checked) {
		t.Helper()
		if c.boosts == 0 || c.boosts == c.picks {
			t.Fatalf("%d of %d picks from BOOST, want some but not all", c.boosts, c.picks)
		}
	}
	t.Run("fig5a", func(t *testing.T) {
		var c *checked
		var s *sim.Simulator
		fig5aCredit(t, func(cfg Config, costs hv.CostModel) *hv.Host {
			var h *hv.Host
			s, h, c = newChecked(t, 2, cfg, costs)
			return h
		})
		s.RunFor(simtime.Seconds(2))
		done(t, c)
	})
	mixed := func(t *testing.T, pcpus, vms int, cfg Config) (*sim.Simulator, *hv.Host, *checked, []*guest.OS) {
		s, h, c := newChecked(t, pcpus, cfg, hv.DefaultCosts())
		gs := mixedVMs(t, h, vms)
		h.Start()
		startMixed(s, gs)
		return s, h, c, gs
	}
	t.Run("capped", func(t *testing.T) {
		s, h, c, _ := mixed(t, 1, 10, DefaultConfig())
		parked := false
		for i := 0; i < 500; i++ {
			s.RunFor(ms(1))
			for _, v := range h.VCPUs() {
				parked = parked || prio(&c.st[v.ID]) == prioParked
			}
		}
		if !parked {
			t.Fatal("no VCPU ever parked; the case needs a capped-out VCPU")
		}
		done(t, c)
	})
	t.Run("sampled", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.SampledAccounting = true
		cfg.Timeslice = ms(1)
		s, _, c, _ := mixed(t, 2, 12, cfg)
		s.RunFor(simtime.Seconds(1))
		done(t, c)
	})
	t.Run("removal", func(t *testing.T) {
		s, h, c, gs := mixed(t, 2, 12, DefaultConfig())
		for round := 0; round < 4; round++ {
			s.RunFor(ms(7))
			// Put the cursor on the ring's last slot, then shut down two
			// VMs below it, so the next scan starts past the end.
			c.cursor = len(c.vcpus) - 1
			removed := 0
			for i := len(gs) - 2; i >= 0 && removed < 2; i-- {
				if gs[i] != nil && gs[i].VM().VCPUs[0].OnPCPU() == nil {
					if err := gs[i].Shutdown(); err != nil {
						t.Fatal(err)
					}
					gs[i] = nil
					removed++
				}
			}
			if c.cursor < len(c.vcpus) {
				t.Fatalf("round %d: cursor %d inside the %d-VCPU ring", round, c.cursor, len(c.vcpus))
			}
			for _, p := range h.PCPUs() {
				h.Kick(p, s.Now())
			}
		}
		s.RunFor(ms(200))
		done(t, c)
	})
	t.Run("words", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Timeslice = ms(1)
		s, _, c, _ := mixed(t, 4, 150, cfg)
		s.RunFor(simtime.Millis(500))
		if len(c.member) < 3 {
			t.Fatalf("%d bitmap words, want the ring to span three", len(c.member))
		}
		done(t, c)
	})
}

// TestScheduleCursorPastEnd removes VCPUs so the round-robin cursor ends up
// past the shrunken ring, then schedules: the pick, its Work and the
// advanced cursor must be what the (cursor+i)%n loop gives.
func TestScheduleCursorPastEnd(t *testing.T) {
	s, h := newRig(t, 1, DefaultConfig())
	sched := h.Scheduler().(*Scheduler)
	var gs []*guest.OS
	var hogs []*workload.CPUHog
	for i := 0; i < 6; i++ {
		g := newVM(t, h, fmt.Sprintf("vm%d", i), 256)
		hog, err := workload.NewCPUHog(g, i, fmt.Sprintf("hog%d", i))
		if err != nil {
			t.Fatal(err)
		}
		gs, hogs = append(gs, g), append(hogs, hog)
	}
	h.Start()
	for _, hog := range hogs {
		hog.Start(0)
	}
	s.RunFor(ms(5))

	// Cursor on the ring's last slot; then shut down two VMs that are not
	// on the PCPU, so nothing re-dispatches before the test's Schedule.
	sched.cursor = len(sched.vcpus) - 1
	removed := 0
	for _, g := range gs {
		if removed < 2 && g.VM().VCPUs[0].OnPCPU() == nil {
			if err := g.Shutdown(); err != nil {
				t.Fatal(err)
			}
			removed++
		}
	}
	if n := len(sched.vcpus); sched.cursor < n {
		t.Fatalf("cursor %d inside the %d-VCPU ring, want it past the end", sched.cursor, n)
	}
	p, now := h.PCPUs()[0], s.Now()
	// Settle the occupant as Schedule's prologue does, so the reference
	// scan sees the same credits.
	if cur := p.Current(); cur != nil {
		sched.settle(cur, now)
		sched.st[cur.ID].runningOn = -1
	}
	want, wantWork, wantNext := refPick(sched, int32(p.ID))
	if want < 0 {
		t.Fatal("reference scan found nothing runnable; the test needs a pick")
	}
	d := sched.Schedule(p, now)
	if d.VCPU == nil || int32(d.VCPU.ID) != want || d.Work != wantWork || sched.cursor != wantNext {
		t.Fatalf("Schedule picked %v (work %d, cursor %d), want VCPU %d (work %d, cursor %d)",
			d.VCPU, d.Work, sched.cursor, want, wantWork, wantNext)
	}
}

// BenchmarkSchedule times one Credit pick on Figure 5a's Credit-arm host:
// two PCPUs with the §4.4 parameters (1ms timeslice, 500µs ratelimit) and
// the arm's 30µs schedule and switch costs, one memcached VM of weight 727
// and 19 CPU-hog VMs of weight 256. After one simulated second the
// benchmark calls Schedule on each PCPU in turn at that instant; work/op
// is the modeled scan length the pick charges (Decision.Work).
func BenchmarkSchedule(b *testing.B) {
	var sched *Scheduler
	var s *sim.Simulator
	h := fig5aCredit(b, func(cfg Config, costs hv.CostModel) *hv.Host {
		s, sched = sim.New(1), New(cfg)
		return hv.NewHost(s, 2, sched, costs)
	})
	s.RunFor(simtime.Seconds(1))

	pcpus := h.PCPUs()
	now := s.Now()
	work := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work += sched.Schedule(pcpus[i%len(pcpus)], now).Work
	}
	b.ReportMetric(float64(work)/float64(b.N), "work/op")
}
