package credit

import (
	"fmt"
	"testing"

	"rtvirt/internal/guest"
	"rtvirt/internal/hv"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/workload"
)

// refPick is Schedule's round-robin scan written as the (cursor+i)%n loop
// over the unreduced cursor: the pick, the scan length and the next cursor.
func refPick(s *Scheduler, pid int32) (best int32, work, next int) {
	n := len(s.vcpus)
	best, bestPrio, bestPos := -1, prioOver+1, 0
	hot := s.h.Hot()
	for i := 0; i < n; i++ {
		id := s.vcpus[(s.cursor+i)%n]
		work++
		if hs := hot[id]; !hs.Runnable || (hs.PCPU >= 0 && hs.PCPU != pid) {
			continue
		}
		if pr := prio(&s.st[id]); pr < bestPrio && pr != prioParked {
			best, bestPrio, bestPos = id, pr, i
			if pr == prioBoost {
				break
			}
		}
	}
	if best >= 0 {
		next = (s.cursor + bestPos + 1) % n
	}
	return best, work, next
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
	cfg := DefaultConfig()
	cfg.Timeslice = simtime.Millis(1)
	cfg.Ratelimit = simtime.Micros(500)
	costs := hv.DefaultCosts()
	costs.ScheduleBase = hv.ConstCost(simtime.Micros(30))
	costs.SetContextSwitch(hv.ConstCost(simtime.Micros(30)))
	s := sim.New(1)
	sched := New(cfg)
	h := hv.NewHost(s, 2, sched, costs)
	weighted := func(name string, weight int) *guest.OS {
		g, err := guest.NewOS(h, name, guest.Config{VCPUCapacity: 1e9}, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := g.AddVCPU(hv.Reservation{Period: ms(10)}, weight); err != nil {
			b.Fatal(err)
		}
		return g
	}
	mc, err := workload.NewMemcached(weighted("mc0", 727), 1000, workload.DefaultMemcachedConfig())
	if err != nil {
		b.Fatal(err)
	}
	var hogs []*workload.CPUHog
	for i := 0; i < 19; i++ {
		hog, err := workload.NewCPUHog(weighted(fmt.Sprintf("bg%d", i), 256), 2000+i, fmt.Sprintf("hog%d", i))
		if err != nil {
			b.Fatal(err)
		}
		hogs = append(hogs, hog)
	}
	h.Start()
	mc.Start(0)
	for _, hog := range hogs {
		hog.Start(0)
	}
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
