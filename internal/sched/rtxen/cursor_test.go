package rtxen

import (
	"fmt"
	"testing"

	"rtvirt/internal/guest"
	"rtvirt/internal/hv"
	"rtvirt/internal/workload"
)

// refBackground is pickBackground written as the (bgCursor+i)%n scan over
// every host VCPU: the pick's ID (-1 for none), the VCPUs examined and the
// next cursor.
func refBackground(s *Scheduler, pid int32) (id, work, next int) {
	all := s.h.VCPUs()
	n := len(all)
	hot := s.h.Hot()
	for i := 0; i < n; i++ {
		v := all[(s.bgCursor+i)%n]
		work++
		if s.isServer(v) {
			continue
		}
		if hs := hot[v.ID]; hs.Runnable && (hs.PCPU < 0 || hs.PCPU == pid) {
			return v.ID, work, (s.bgCursor + i + 1) % n
		}
	}
	return -1, work, s.bgCursor
}

// TestBackgroundCursorPastEnd removes background VCPUs so the round-robin
// cursor ends up past the shrunken VCPU list, then schedules with the
// (idle) servers ineligible: the pick, its Work and the advanced cursor
// must be what the (bgCursor+i)%n loop gives. Removing the rest leaves a
// host of servers only, where the scan is charged without walking.
func TestBackgroundCursorPastEnd(t *testing.T) {
	s, h := newRig(t, 1)
	sched := h.Scheduler().(*Scheduler)
	newServerVM(t, h, "srv0", res(1, 10))
	newServerVM(t, h, "srv1", res(2, 10))
	var gs []*guest.OS
	var hogs []*workload.CPUHog
	for i := 0; i < 5; i++ {
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

	check := func(what string) {
		t.Helper()
		p, now := h.PCPUs()[0], s.Now()
		wantID, bgWork, wantNext := refBackground(sched, int32(p.ID))
		wantWork := len(sched.runq.v) + bgWork // pickEDF scanned the whole queue
		d := sched.Schedule(p, now)
		gotID := -1
		if d.VCPU != nil {
			gotID = d.VCPU.ID
		}
		if gotID != wantID || d.Work != wantWork || sched.bgCursor != wantNext {
			t.Fatalf("%s: Schedule picked %d (work %d, cursor %d), want %d (work %d, cursor %d)",
				what, gotID, d.Work, sched.bgCursor, wantID, wantWork, wantNext)
		}
	}

	// Cursor on the list's last slot; then shut down two background VMs
	// that are not on the PCPU, so nothing re-dispatches before Schedule.
	sched.bgCursor = len(h.VCPUs()) - 1
	removed := 0
	for i, g := range gs {
		if removed < 2 && g.VM().VCPUs[0].OnPCPU() == nil {
			if err := g.Shutdown(); err != nil {
				t.Fatal(err)
			}
			gs[i] = nil
			removed++
		}
	}
	if n := len(h.VCPUs()); sched.bgCursor < n {
		t.Fatalf("cursor %d inside the %d-VCPU list, want it past the end", sched.bgCursor, n)
	}
	check("cursor past the end")

	for _, g := range gs {
		if g != nil {
			if err := g.Shutdown(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(sched.runq.v) != len(h.VCPUs()) {
		t.Fatalf("%d servers on a host of %d VCPUs, want servers only", len(sched.runq.v), len(h.VCPUs()))
	}
	check("servers only")
}
