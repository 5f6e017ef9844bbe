package dpwrap

import (
	"fmt"
	"testing"

	"rtvirt/internal/clone"
	"rtvirt/internal/eventq"
	"rtvirt/internal/guest"
	"rtvirt/internal/hv"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/workload"
)

// fig5aHost builds Figure 5a's RTVirt arm and runs it for warm: DP-WRAP on
// 2 PCPUs with the §4 default costs, one cross-layer memcached VM with
// zero slack (its sporadic floor sets the global slice) and 19 weighted
// CPU-hog VMs in the background.
func fig5aHost(tb testing.TB, warm simtime.Duration) (*sim.Simulator, *hv.Host, *Scheduler) {
	tb.Helper()
	s := sim.New(1)
	sched := New(DefaultConfig())
	h := hv.NewHost(s, 2, sched, hv.DefaultCosts())
	g, err := guest.NewOS(h, "mc0", guest.Config{VCPUCapacity: 1, CrossLayer: true}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	mc, err := workload.NewMemcached(g, 1000, workload.DefaultMemcachedConfig())
	if err != nil {
		tb.Fatal(err)
	}
	var hogs []*workload.CPUHog
	for i := 0; i < 19; i++ {
		hg, err := guest.NewOS(h, fmt.Sprintf("bg%d", i), guest.Config{VCPUCapacity: 1e9}, 0)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := hg.AddVCPU(hv.Reservation{Period: ms(10)}, 256); err != nil {
			tb.Fatal(err)
		}
		hog, err := workload.NewCPUHog(hg, 2000+i, fmt.Sprintf("hog%d", i))
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
	s.RunFor(warm)
	if sched.Boundaries < 100 {
		tb.Fatalf("warm-up crossed %d slice boundaries, want the memcached floor to drive many", sched.Boundaries)
	}
	return s, h, sched
}

// TestSteadyStateZeroAlloc pins the allocation-free slice boundary: once a
// host has run, a rebuild reuses its scratch and the PCPUs' entry arrays,
// and the re-dispatch that follows allocates nothing either. CI runs it as
// a zero-alloc guard.
func TestSteadyStateZeroAlloc(t *testing.T) {
	s, _, sched := fig5aHost(t, simtime.Seconds(1))
	now := s.Now()
	if n := testing.AllocsPerRun(1000, func() { sched.rebuild(now) }); n != 0 {
		t.Fatalf("steady-state rebuild allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { sched.replanKick(now) }); n != 0 {
		t.Fatalf("steady-state replanKick allocates %.1f/op, want 0", n)
	}
	for _, r := range sched.rt[:cap(sched.rt)] {
		if r.v != nil {
			t.Fatal("rebuild scratch still holds a VCPU pointer")
		}
	}
}

// BenchmarkRebuild times one global-slice rebuild (sort, wrap layout,
// reindex, boundary post) on the Figure 5a RTVirt host with no boundary
// event pending, as the boundary handler runs it once its event has
// fired. Each rebuild posts a boundary, so the ops rotate over
// rebuildForks forks of the warm host, and the posted boundaries are
// cancelled outside the timer once per round.
func BenchmarkRebuild(b *testing.B) {
	s, _, sched := fig5aHost(b, simtime.Seconds(1))
	now := s.Now()
	forks := make([]*Scheduler, rebuildForks)
	for i := range forks {
		ctx := clone.New()
		s.Fork(ctx)
		forks[i] = clone.Get(ctx, sched)
		forks[i].rebuild(now) // a fork starts with no rebuild scratch
	}
	settle := func() {
		for _, f := range forks {
			f.h.Sim.Cancel(f.boundaryEv)
			f.boundaryEv = eventq.Handle{}
		}
	}
	settle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(forks)
		if k == 0 && i > 0 {
			b.StopTimer()
			settle()
			b.StartTimer()
		}
		forks[k].rebuild(now)
	}
}

// rebuildForks is how many forks BenchmarkRebuild rotates over: each
// timer stop perturbs the ops after it, so a round must be long, and each
// fork is a whole host, so the rotation must stay small.
const rebuildForks = 64

// BenchmarkSchedule times one DP-WRAP pick on the Figure 5a RTVirt host,
// alternating its two PCPUs; work/op is the modeled scan length the pick
// charges (Decision.Work).
func BenchmarkSchedule(b *testing.B) {
	s, h, sched := fig5aHost(b, simtime.Seconds(1))
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
