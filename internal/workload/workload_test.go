package workload

import (
	"math"
	"testing"

	"rtvirt/internal/dist"
	"rtvirt/internal/guest"
	"rtvirt/internal/hv"
	"rtvirt/internal/sched/dpwrap"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

func ms(n int64) simtime.Duration { return simtime.Millis(n) }

func rig(t *testing.T, pcpus int) (*sim.Simulator, *hv.Host, *guest.OS) {
	t.Helper()
	s := sim.New(21)
	h := hv.NewHost(s, pcpus, dpwrap.New(dpwrap.DefaultConfig()), hv.CostModel{})
	g, err := guest.NewOS(h, "vm0", guest.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return s, h, g
}

func TestRTAppRunsPeriodically(t *testing.T) {
	s, h, g := rig(t, 1)
	app, err := NewRTApp(g, 0, "rta", task.Params{Slice: ms(2), Period: ms(10)})
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	app.Start(0)
	s.RunFor(simtime.Seconds(1))
	st := app.Task.Stats()
	if st.Released != 101 || st.Missed != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if err := app.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestSporadicClientDrivesRequests(t *testing.T) {
	s, h, g := rig(t, 1)
	tk := task.New(0, "sp", task.Sporadic, task.Params{Slice: ms(2), Period: ms(20)})
	if err := g.Register(tk); err != nil {
		t.Fatal(err)
	}
	c := NewClient(g, tk, Renewal{D: dist.Uniform{Lo: ms(100), Hi: simtime.Seconds(1)}})
	c.Requests = 100
	h.Start()
	c.Start(0)
	s.RunFor(simtime.Seconds(120))
	if c.Sent() != 100 {
		t.Fatalf("sent %d requests, want 100", c.Sent())
	}
	if c.Latency.Count() != 100 {
		t.Fatalf("served %d requests, want 100", c.Latency.Count())
	}
	if c.Task.Stats().Missed != 0 {
		t.Fatalf("sporadic misses: %d", c.Task.Stats().Missed)
	}
	// Dedicated CPU: latency = service time (2ms) as there is no contention.
	if p := c.Latency.Percentile(99.9); p > ms(3) {
		t.Fatalf("p99.9 = %v, want ≈2ms on an idle host", p)
	}
}

func TestVideoProfilesMatchTable3(t *testing.T) {
	cases := map[int]struct {
		s, p int64
		bw   float64
	}{
		24: {19, 41, 0.445},
		30: {18, 33, 0.541},
		48: {17, 20, 0.845},
		60: {15, 16, 0.936},
	}
	for fps, want := range cases {
		prof, ok := ProfileFor(fps)
		if !ok {
			t.Fatalf("no profile for %d fps", fps)
		}
		if prof.Params.Slice != ms(want.s) || prof.Params.Period != ms(want.p) {
			t.Errorf("%d fps params = %v, want (s=%dms, p=%dms)", fps, prof.Params, want.s, want.p)
		}
		if math.Abs(prof.Bandwidth-want.bw) > 1e-9 {
			t.Errorf("%d fps bandwidth = %g, want %g", fps, prof.Bandwidth, want.bw)
		}
	}
	if _, ok := ProfileFor(25); ok {
		t.Fatal("unexpected profile for 25 fps")
	}
}

func TestVideoStreamMeetsRate(t *testing.T) {
	s, h, g := rig(t, 1)
	vs, err := NewVideoStream(g, 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	vs.App.Start(0)
	s.RunFor(simtime.Seconds(5))
	st := vs.App.Task.Stats()
	if st.Missed != 0 {
		t.Fatalf("30fps stream missed %d/%d frame deadlines", st.Missed, st.Released)
	}
	// 5s at one frame per 33ms ≈ 151 frames.
	if st.Completed < 145 {
		t.Fatalf("completed only %d frames", st.Completed)
	}
}

func TestMemcachedLatencyOnDedicatedCPU(t *testing.T) {
	s, h, g := rig(t, 1)
	mc, err := NewMemcached(g, 0, DefaultMemcachedConfig())
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	mc.Start(0)
	s.RunFor(simtime.Seconds(100)) // ≈10k requests at 100 QPS
	if mc.Latency.Count() < 9000 {
		t.Fatalf("served only %d requests", mc.Latency.Count())
	}
	p999 := mc.Latency.Percentile(99.9)
	// Dedicated CPU with zero platform costs: latency ≈ service demand.
	if p999 < simtime.Micros(45) || p999 > simtime.Micros(70) {
		t.Fatalf("p99.9 = %v, want ≈55µs (Table 4 ballpark)", p999)
	}
	if mc.Latency.Mean() > simtime.Micros(50) {
		t.Fatalf("mean = %v, want ≈45µs", mc.Latency.Mean())
	}
}

func TestMemcachedStop(t *testing.T) {
	s, h, g := rig(t, 1)
	mc, err := NewMemcached(g, 0, DefaultMemcachedConfig())
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	mc.Start(0)
	s.RunFor(simtime.Seconds(1))
	mc.Stop()
	sent := mc.Sent()
	s.RunFor(simtime.Seconds(1))
	if mc.Sent() != sent {
		t.Fatal("requests kept arriving after Stop")
	}
}

func TestMemcachedRequestCap(t *testing.T) {
	s, h, g := rig(t, 1)
	cfg := DefaultMemcachedConfig()
	cfg.Requests = 50
	mc, err := NewMemcached(g, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	mc.Start(0)
	s.RunFor(simtime.Seconds(10))
	if mc.Sent() != 50 {
		t.Fatalf("sent %d, want 50", mc.Sent())
	}
}

func TestMemcachedInvalidConfig(t *testing.T) {
	_, _, g := rig(t, 1)
	if _, err := NewMemcached(g, 0, MemcachedConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
	cfg := DefaultMemcachedConfig()
	cfg.Requests = -1
	if _, err := NewMemcached(g, 0, cfg); err == nil {
		t.Fatal("negative request cap accepted")
	}
}

func TestCPUHogConsumesLeftover(t *testing.T) {
	s, h, g := rig(t, 1)
	hog, err := NewCPUHog(g, 0, "hog")
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	hog.Start(0)
	s.RunFor(simtime.Seconds(1))
	h.Sync()
	if run := g.VM().TotalRun(); run < simtime.Millis(990) {
		t.Fatalf("hog ran only %v of 1s on an idle host", run)
	}
}

func TestMissSummaryAggregation(t *testing.T) {
	a := task.New(0, "a", task.Periodic, task.Params{Slice: ms(1), Period: ms(10)})
	b := task.New(1, "b", task.Periodic, task.Params{Slice: ms(1), Period: ms(10)})
	j := a.Release(0, ms(1))
	j.Consume(ms(1))
	j.Complete(simtime.Time(ms(20))) // late
	j2 := b.Release(0, ms(1))
	j2.Consume(ms(1))
	j2.Complete(simtime.Time(ms(5))) // on time
	sum := MissSummary([]*task.Task{a, b})
	if sum.Tasks != 2 || sum.Missed != 1 || sum.Judged != 2 {
		t.Fatalf("summary: %+v", sum)
	}
	if sum.WorstTask != "a" || sum.WorstRatio != 1 {
		t.Fatalf("worst: %+v", sum)
	}
	if sum.TasksWithMisses != 1 {
		t.Fatalf("TasksWithMisses = %d", sum.TasksWithMisses)
	}
}
