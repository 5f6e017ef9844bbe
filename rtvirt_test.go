package rtvirt_test

import (
	"fmt"
	"testing"

	"rtvirt"
	"rtvirt/internal/trace"
)

// TestPublicAPIQuickstart exercises the README's quick-start path through
// the public facade.
func TestPublicAPIQuickstart(t *testing.T) {
	cfg := rtvirt.DefaultConfig(rtvirt.StackRTVirt)
	cfg.PCPUs = 1
	sys := rtvirt.NewSystem(cfg)
	vm, err := sys.NewGuest("vm0", 1)
	if err != nil {
		t.Fatal(err)
	}
	app, err := rtvirt.NewRTApp(vm, 0, "sensor",
		rtvirt.Params{Slice: 2 * rtvirt.Millisecond, Period: 10 * rtvirt.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	app.Start(0)
	sys.Run(10 * rtvirt.Second)
	st := app.Task.Stats()
	if st.Missed != 0 || st.Completed < 990 {
		t.Fatalf("quickstart stats: %+v", st)
	}
}

// TestPublicAPIMemcached exercises the workload facade.
func TestPublicAPIMemcached(t *testing.T) {
	cfg := rtvirt.DefaultConfig(rtvirt.StackRTVirt)
	cfg.PCPUs = 1
	sys := rtvirt.NewSystem(cfg)
	zero := rtvirt.Duration(0)
	vm, err := sys.NewGuestOpts("mc", rtvirt.GuestOpts{VCPUs: 1, Slack: &zero})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := rtvirt.NewMemcached(vm, 0, rtvirt.DefaultMemcachedConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	mc.Start(0)
	sys.Run(20 * rtvirt.Second)
	if mc.Latency.Count() < 1500 {
		t.Fatalf("served %d requests", mc.Latency.Count())
	}
	if p := mc.Latency.Percentile(99.9); p > 500*rtvirt.Microsecond {
		t.Fatalf("p99.9 = %v on an idle host", p)
	}
}

// ExampleNewSystem demonstrates the minimal RTVirt program.
func ExampleNewSystem() {
	cfg := rtvirt.DefaultConfig(rtvirt.StackRTVirt)
	cfg.PCPUs = 1
	sys := rtvirt.NewSystem(cfg)
	vm, _ := sys.NewGuest("vm0", 1)
	app, _ := rtvirt.NewRTApp(vm, 0, "sensor",
		rtvirt.Params{Slice: 2 * rtvirt.Millisecond, Period: 10 * rtvirt.Millisecond})
	sys.Start()
	app.Start(0)
	sys.Run(rtvirt.Second)
	st := app.Task.Stats()
	fmt.Printf("completed %d jobs, missed %d deadlines\n", st.Completed, st.Missed)
	// Output: completed 100 jobs, missed 0 deadlines
}

// TestPublicAPICluster exercises the multi-host facade.
func TestPublicAPICluster(t *testing.T) {
	c := rtvirt.NewCluster(rtvirt.ClusterDefaults())
	d, err := c.Place(rtvirt.VMSpec{
		Name:  "vm",
		VCPUs: 1,
		Tasks: []rtvirt.ClusterTaskSpec{{
			Name:   "t",
			Kind:   rtvirt.Periodic,
			Params: rtvirt.Params{Slice: 2 * rtvirt.Millisecond, Period: 10 * rtvirt.Millisecond},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Run(2*rtvirt.Second, 1)
	if _, err := c.Migrate("vm", nil); err != nil {
		t.Fatal(err)
	}
	c.Run(2*rtvirt.Second, 1)
	if d.Migrations != 1 {
		t.Fatalf("migrations = %d", d.Migrations)
	}
	if st := d.Tasks()[0].Stats(); st.Completed < 300 {
		t.Fatalf("completed = %d", st.Completed)
	}
}

// TestPublicAPITracer exercises the tracer through the facade: every job
// of a 1-PCPU run shows up in the recorded schedule.
func TestPublicAPITracer(t *testing.T) {
	cfg := rtvirt.DefaultConfig(rtvirt.StackRTVirt)
	cfg.PCPUs = 1
	sys := rtvirt.NewSystem(cfg)
	rec := &rtvirt.TraceRecorder{}
	rtvirt.AttachTracer(sys, rec)
	vm, _ := sys.NewGuest("vm", 1)
	app, _ := rtvirt.NewRTApp(vm, 0, "t",
		rtvirt.Params{Slice: rtvirt.Millisecond, Period: 10 * rtvirt.Millisecond})
	sys.Start()
	app.Start(0)
	sys.Run(5 * rtvirt.Second)
	done := 0
	for _, ev := range rec.Records() {
		if ev.Kind == trace.JobDone {
			done++
		}
	}
	if st := app.Task.Stats(); done != st.Completed || done < 490 {
		t.Fatalf("trace holds %d job completions, the task counted %d", done, st.Completed)
	}
}

// TestPublicAPIScenario drives the declarative scenario path end to end:
// admission-check a scenario offline, then simulate it and confirm the
// analyzer's verdict holds.
func TestPublicAPIScenario(t *testing.T) {
	sc := rtvirt.Scenario{
		Stack: "rtvirt", PCPUs: 2, Seconds: 2, Seed: 7,
		VMs: []rtvirt.ScenarioVM{{
			Name: "ctl-vm", VCPUs: 1,
			Tasks: []rtvirt.ScenarioTask{
				{Name: "ctl", Kind: "periodic", SliceUS: 2000, PeriodUS: 10000},
				{Name: "log", Kind: "background"},
			},
		}},
	}

	plan, err := rtvirt.AnalyzeScenario(sc, rtvirt.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.RTVirtAdmitted || !plan.RTXenAdmitted {
		t.Fatalf("admission: %+v", plan)
	}
	if len(plan.VMs) != 1 || len(plan.VMs[0].RTVirt) != 1 || plan.VMs[0].Background != 1 {
		t.Fatalf("plan: %+v", plan.VMs)
	}

	res, err := rtvirt.RunScenario(sc, rtvirt.ScenarioOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Tasks {
		if tr.Name == "ctl" && tr.Stats.Missed != 0 {
			t.Fatalf("admitted task missed %d deadlines", tr.Stats.Missed)
		}
	}
	// The simulator reserves what the analyzer predicted.
	if got, want := res.AllocatedBW, plan.RTVirtAllocated; got < want-0.01 || got > want+0.01 {
		t.Fatalf("reserved %.3f CPUs, analyzer predicted %.3f", got, want)
	}
}

// TestPublicAPIWorkloadZoo exercises every workload constructor the
// facade exports, on one mixed host.
func TestPublicAPIWorkloadZoo(t *testing.T) {
	cfg := rtvirt.DefaultConfig(rtvirt.StackRTVirt)
	cfg.PCPUs = 4
	sys := rtvirt.NewSystem(cfg)

	vidVM, err := sys.NewGuest("video", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rtvirt.VideoProfiles()) == 0 {
		t.Fatal("no Table-3 profiles")
	}
	vid, err := rtvirt.NewVideoStream(vidVM, 0, 30)
	if err != nil {
		t.Fatal(err)
	}

	ctlVM, err := sys.NewGuest("control", 1)
	if err != nil {
		t.Fatal(err)
	}
	ctl := rtvirt.NewTask(1, "ctl", rtvirt.Periodic,
		rtvirt.Params{Slice: 1 * rtvirt.Millisecond, Period: 10 * rtvirt.Millisecond})
	if err := ctlVM.Register(ctl); err != nil {
		t.Fatal(err)
	}

	bgVM, err := sys.NewGuest("batch", 1)
	if err != nil {
		t.Fatal(err)
	}
	hog, err := rtvirt.NewCPUHog(bgVM, 3, "hog")
	if err != nil {
		t.Fatal(err)
	}

	sys.Start()
	vid.App.Start(0)
	ctlVM.StartPeriodic(ctl, 0)
	hog.Start(0)
	sys.Run(2 * rtvirt.Second)

	for _, tk := range []*rtvirt.Task{vid.App.Task, ctl} {
		if st := tk.Stats(); st.Released == 0 || st.Missed != 0 {
			t.Fatalf("%s: released %d, missed %d", tk.Name, st.Released, st.Missed)
		}
	}
	if hog.Task.Stats().TotalWork == 0 {
		t.Fatal("background hog never ran")
	}
}
