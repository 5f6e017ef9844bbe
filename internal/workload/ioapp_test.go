package workload

import (
	"testing"

	"rtvirt/internal/guest"
	"rtvirt/internal/hv"
	"rtvirt/internal/sched/dpwrap"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
)

func TestIOAppEndToEnd(t *testing.T) {
	s := sim.New(31)
	h := hv.NewHost(s, 1, dpwrap.New(dpwrap.DefaultConfig()), hv.CostModel{})
	gc := guest.DefaultConfig()
	gc.Slack = 0
	g, err := guest.NewOS(h, "vm", gc, 1)
	if err != nil {
		t.Fatal(err)
	}
	app, err := NewIOApp(g, 0, DefaultIOAppConfig())
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	app.Start(0)
	s.RunFor(30 * simtime.Second)
	if app.Latency.Count() < 5000 {
		t.Fatalf("completed %d requests", app.Latency.Count())
	}
	// On an idle host, end-to-end ≈ compute1 + IO wait + compute2 ≈ 310µs;
	// the SLO (1ms) holds easily.
	if app.SLOViolations != 0 {
		t.Fatalf("%d SLO violations on an idle host", app.SLOViolations)
	}
	mean := app.Latency.Mean()
	if mean < simtime.Micros(250) || mean > simtime.Micros(450) {
		t.Fatalf("mean end-to-end %v, want ≈310µs", mean)
	}
	// The CPU phases alone are far below the end-to-end time: the gap is
	// the I/O wait RTVirt explicitly does not guarantee.
	if cpuMean := app.CPULatency.Mean(); cpuMean > simtime.Micros(100) {
		t.Fatalf("mean CPU-phase latency %v, want ≪ end-to-end", cpuMean)
	}
}

func TestIOAppUnderContention(t *testing.T) {
	// With a CPU hog sharing the host, the CPU phases stay bounded by the
	// reservation while the I/O wait is untouched: end-to-end holds.
	s := sim.New(31)
	h := hv.NewHost(s, 1, dpwrap.New(dpwrap.DefaultConfig()), hv.CostModel{})
	gc := guest.DefaultConfig()
	gc.Slack = 0
	g, err := guest.NewOS(h, "vm", gc, 1)
	if err != nil {
		t.Fatal(err)
	}
	app, err := NewIOApp(g, 0, DefaultIOAppConfig())
	if err != nil {
		t.Fatal(err)
	}
	gb, err := guest.NewOS(h, "bg", guest.Config{CrossLayer: true, VCPUCapacity: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	hog, err := NewCPUHog(gb, 1, "hog")
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	app.Start(0)
	hog.Start(0)
	s.RunFor(30 * simtime.Second)
	if app.Latency.Count() < 5000 {
		t.Fatalf("completed %d requests", app.Latency.Count())
	}
	violations := float64(app.SLOViolations) / float64(app.Latency.Count())
	if violations > 0.001 {
		t.Fatalf("SLO violations %.4f under contention; the reservation should hold", violations)
	}
}

func TestIOAppInvalidConfig(t *testing.T) {
	s := sim.New(31)
	h := hv.NewHost(s, 1, dpwrap.New(dpwrap.DefaultConfig()), hv.CostModel{})
	g, err := guest.NewOS(h, "vm", guest.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewIOApp(g, 0, IOAppConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
	cfg := DefaultIOAppConfig()
	cfg.Requests = -1
	if _, err := NewIOApp(g, 0, cfg); err == nil {
		t.Fatal("negative request cap accepted")
	}
}
