package dpwrap

import (
	"fmt"
	"testing"

	"rtvirt/internal/guest"
	"rtvirt/internal/hv"
	"rtvirt/internal/sim"
	"rtvirt/internal/workload"
)

// refBackground is pickBackground written as the (bgCursor+i)%n scan over
// the admission-order list: the pick's ID (-1 for none), the VCPUs
// examined and the next cursor.
func refBackground(s *Scheduler, p *hv.PCPU) (id, work, next int) {
	ps := s.pcpu[p.ID]
	n := len(s.vcpus)
	hot := s.h.Hot()
	for i := 0; i < n; i++ {
		v := s.vcpus[(ps.bgCursor+i)%n]
		work++
		if s.cfg.NonWorkConserving && v.RT && v.Res.Budget > 0 {
			continue
		}
		if hs := &hot[v.ID]; hs.Runnable && (hs.PCPU < 0 || hs.PCPU == int32(p.ID)) {
			return v.ID, work, (ps.bgCursor + i + 1) % n
		}
	}
	return -1, work, ps.bgCursor
}

// TestBackgroundCursorPastEnd removes VCPUs behind a PCPU's background
// cursor. Each removal replans and re-dispatches, so the first one runs
// pickBackground with the cursor past the shrunken list (the path a
// cursor that is not reduced before indexing panics on). A PCPU busy on
// quota skips pickBackground at that re-dispatch and keeps its cursor past
// the end, so the test then sets one there and schedules: the pick, its
// Work and the advanced cursor must be what the (bgCursor+i)%n loop gives.
func TestBackgroundCursorPastEnd(t *testing.T) {
	s := sim.New(1)
	sched := New(DefaultConfig())
	h := hv.NewHost(s, 1, sched, hv.CostModel{})
	var gs []*guest.OS
	var hogs []*workload.CPUHog
	for i := 0; i < 6; i++ {
		g, err := guest.NewOS(h, fmt.Sprintf("bg%d", i), guest.Config{VCPUCapacity: 1e9}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.AddVCPU(hv.Reservation{Period: ms(10)}, 256); err != nil {
			t.Fatal(err)
		}
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

	ps := sched.pcpu[0]
	ps.bgCursor = len(sched.vcpus) - 1
	for _, g := range gs[:2] {
		if err := g.Shutdown(); err != nil {
			t.Fatal(err)
		}
	}

	ps.bgCursor = len(sched.vcpus) + 1
	p, now := h.PCPUs()[0], s.Now()
	wantID, bgWork, wantNext := refBackground(sched, p)
	if wantID < 0 {
		t.Fatal("reference scan found nothing runnable; the test needs a pick")
	}
	d := sched.Schedule(p, now)
	wantWork := 1 + len(ps.entries) + bgWork // base + the (empty) quota layout
	if d.VCPU == nil || d.VCPU.ID != wantID || d.Work != wantWork || ps.bgCursor != wantNext {
		t.Fatalf("Schedule picked %v (work %d, cursor %d), want VCPU %d (work %d, cursor %d)",
			d.VCPU, d.Work, ps.bgCursor, wantID, wantWork, wantNext)
	}
}
