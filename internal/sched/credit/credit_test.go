package credit

import (
	"fmt"
	"testing"

	"rtvirt/internal/guest"
	"rtvirt/internal/hv"
	"rtvirt/internal/metrics"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

func ms(n int64) simtime.Duration { return simtime.Millis(n) }

func newRig(t *testing.T, pcpus int, cfg Config) (*sim.Simulator, *hv.Host) {
	t.Helper()
	s := sim.New(9)
	h := hv.NewHost(s, pcpus, New(cfg), hv.CostModel{})
	return s, h
}

func newVM(t *testing.T, h *hv.Host, name string, weight int) *guest.OS {
	t.Helper()
	cfg := guest.Config{CrossLayer: false, VCPUCapacity: 1e9}
	g, err := guest.NewOS(h, name, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddVCPU(hv.Reservation{Period: ms(10)}, weight); err != nil {
		t.Fatal(err)
	}
	return g
}

func startHog(s *sim.Simulator, g *guest.OS, tk *task.Task) {
	g.ReleaseAt(tk, s.Now(), simtime.Seconds(10000))
}

func TestProportionalShareByWeight(t *testing.T) {
	s, h := newRig(t, 1, DefaultConfig())
	gA := newVM(t, h, "heavy", 512)
	gB := newVM(t, h, "light", 256)
	hogA := task.NewBackground(0, "a")
	hogB := task.NewBackground(1, "b")
	if err := gA.Register(hogA); err != nil {
		t.Fatal(err)
	}
	if err := gB.Register(hogB); err != nil {
		t.Fatal(err)
	}
	h.Start()
	startHog(s, gA, hogA)
	startHog(s, gB, hogB)
	s.RunFor(simtime.Seconds(10))
	h.Sync()
	runA, runB := gA.VM().TotalRun(), gB.VM().TotalRun()
	ratio := float64(runA) / float64(runB)
	if ratio < 1.7 || ratio > 2.3 {
		t.Fatalf("share ratio = %.2f, want ≈2.0 (weights 512:256); runs %v vs %v",
			ratio, runA, runB)
	}
	total := runA + runB
	if total < simtime.Millis(9500) || total > simtime.Seconds(10) {
		t.Fatalf("work-conservation broken: total run %v of 10s", total)
	}
}

func TestBoostGivesLowWakeLatency(t *testing.T) {
	// A mostly-idle latency-sensitive VM against one CPU hog: the BOOST
	// path must deliver sub-timeslice wake latency.
	cfg := DefaultConfig()
	s, h := newRig(t, 1, cfg)
	gL := newVM(t, h, "latency", 256)
	gH := newVM(t, h, "hog", 256)
	srv := task.New(0, "srv", task.Sporadic, task.Params{Slice: simtime.Micros(100), Period: ms(10)})
	if err := gL.RegisterOn(srv, 0); err != nil {
		t.Fatal(err)
	}
	hog := task.NewBackground(1, "hog")
	if err := gH.Register(hog); err != nil {
		t.Fatal(err)
	}
	var lat metrics.LatencyRecorder
	srv.OnJobDone = func(j *task.Job) { lat.Add(j.Finish.Sub(j.Release)) }
	h.Start()
	startHog(s, gH, hog)
	for i := int64(0); i < 100; i++ {
		at := simtime.Time(ms(13*i + 3))
		gL.ReleaseAt(srv, at, 0)
	}
	s.RunFor(simtime.Seconds(2))
	// With BOOST the request preempts the hog after at most the ratelimit.
	if p50 := lat.Percentile(50); p50 > cfg.Ratelimit+simtime.Micros(200) {
		t.Fatalf("median wake latency %v exceeds ratelimit+service", p50)
	}
}

func TestRatelimitDefersPreemption(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ratelimit = ms(1)
	s, h := newRig(t, 1, cfg)
	gL := newVM(t, h, "latency", 256)
	gH := newVM(t, h, "hog", 256)
	srv := task.New(0, "srv", task.Sporadic, task.Params{Slice: simtime.Micros(10), Period: ms(10)})
	if err := gL.RegisterOn(srv, 0); err != nil {
		t.Fatal(err)
	}
	hog := task.NewBackground(1, "hog")
	if err := gH.Register(hog); err != nil {
		t.Fatal(err)
	}
	var lat metrics.LatencyRecorder
	srv.OnJobDone = func(j *task.Job) { lat.Add(j.Finish.Sub(j.Release)) }
	h.Start()
	startHog(s, gH, hog)
	// Release right after the hog's dispatch so the ratelimit must delay us.
	gL.ReleaseAt(srv, simtime.Time(ms(30)+simtime.Micros(100)), 0)
	s.RunFor(simtime.Seconds(1))
	if lat.Count() != 1 {
		t.Fatalf("request not served: %d", lat.Count())
	}
	got := lat.Max()
	if got < simtime.Micros(800) {
		t.Fatalf("latency %v too small; ratelimit should defer preemption", got)
	}
	if got > ms(2) {
		t.Fatalf("latency %v too large; boost should run after ratelimit", got)
	}
}

func TestOverStateStarvesTail(t *testing.T) {
	// One latency VM against many hogs on one PCPU: when requests arrive
	// while the VM is OVER (credits spent), they wait for round-robin of
	// the hogs — the long-tail effect of Figure 5a.
	cfg := DefaultConfig()
	cfg.Timeslice = ms(1)
	cfg.Ratelimit = simtime.Micros(500)
	s, h := newRig(t, 1, cfg)
	gL := newVM(t, h, "mc", 256)
	srv := task.New(0, "srv", task.Sporadic, task.Params{Slice: ms(2), Period: ms(100)})
	if err := gL.RegisterOn(srv, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		g := newVM(t, h, fmt.Sprintf("hog%d", i), 256)
		hog := task.NewBackground(10+i, "hog")
		if err := g.Register(hog); err != nil {
			t.Fatal(err)
		}
		startHog(s, g, hog)
	}
	var lat metrics.LatencyRecorder
	srv.OnJobDone = func(j *task.Job) { lat.Add(j.Finish.Sub(j.Release)) }
	h.Start()
	// Burst of back-to-back heavy requests to exhaust credits, then more.
	for i := int64(0); i < 200; i++ {
		now := simtime.Time(ms(5*i + 1))
		s.RunUntil(now)
		if srv.EarliestNextRelease() <= now {
			gL.ReleaseJob(srv, 0)
		}
	}
	s.RunUntil(simtime.Time(simtime.Seconds(2)))
	if lat.Count() < 5 {
		t.Fatalf("too few requests served: %d", lat.Count())
	}
	if tail := lat.Max(); tail < ms(2) {
		t.Fatalf("max latency %v; expected multi-ms tail once OVER", tail)
	}
}

func TestTickCostCharged(t *testing.T) {
	s := sim.New(9)
	h := hv.NewHost(s, 1, New(DefaultConfig()), hv.CostModel{Tick: hv.ConstCost(simtime.Micros(20))})
	g := newVM(t, h, "busy", 256)
	hog := task.NewBackground(0, "hog")
	if err := g.Register(hog); err != nil {
		t.Fatal(err)
	}
	h.Start()
	startHog(s, g, hog)
	s.RunFor(simtime.Seconds(1))
	// ~100 ticks × 20µs = ~2ms of schedule time.
	if h.Overhead.ScheduleTime < simtime.Millis(1) {
		t.Fatalf("tick cost not charged: %v", h.Overhead.ScheduleTime)
	}
}

func TestAdmitRejectsZeroWeight(t *testing.T) {
	_, h := newRig(t, 1, DefaultConfig())
	cfg := guest.Config{CrossLayer: false}
	g, err := guest.NewOS(h, "vm", cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddVCPU(hv.Reservation{Period: ms(10)}, 0); err == nil {
		t.Fatal("zero weight admitted")
	}
}

func TestWorkConservingAcrossPCPUs(t *testing.T) {
	s, h := newRig(t, 2, DefaultConfig())
	var guests []*guest.OS
	for i := 0; i < 2; i++ {
		g := newVM(t, h, fmt.Sprintf("vm%d", i), 256)
		hog := task.NewBackground(i, "hog")
		if err := g.Register(hog); err != nil {
			t.Fatal(err)
		}
		guests = append(guests, g)
		startHog(s, g, hog)
	}
	h.Start()
	s.RunFor(simtime.Seconds(2))
	h.Sync()
	for _, g := range guests {
		run := g.VM().TotalRun()
		if run < simtime.Millis(1900) {
			t.Fatalf("%s ran only %v of 2s; both PCPUs should be used", g.VM().Name, run)
		}
	}
}
