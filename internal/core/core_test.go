package core

import (
	"testing"

	"rtvirt/internal/hv"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
	"rtvirt/internal/workload"
)

func ms(n int64) simtime.Duration { return simtime.Millis(n) }

func TestRTVirtStackEndToEnd(t *testing.T) {
	cfg := DefaultConfig(RTVirt)
	cfg.PCPUs = 2
	sys := NewSystem(cfg)
	g, err := sys.NewGuest("vm0", 1)
	if err != nil {
		t.Fatal(err)
	}
	app, err := workload.NewRTApp(g, 0, "rta", task.Params{Slice: ms(5), Period: ms(10)})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	app.Start(0)
	sys.Run(simtime.Seconds(5))
	st := app.Task.Stats()
	if st.Missed != 0 || st.Completed < 490 {
		t.Fatalf("stats: %+v", st)
	}
	if bw := sys.AllocatedBandwidth(); bw < 0.5 || bw > 0.6 {
		t.Fatalf("allocated = %.3f, want ≈0.55 (0.5 + slack)", bw)
	}
	var tasks int
	for _, g := range sys.Guests() {
		tasks += len(g.Tasks())
	}
	if tasks != 1 {
		t.Fatalf("tasks across guests = %d, want 1", tasks)
	}
	ov := sys.Overhead()
	if ov.Hypercalls == 0 {
		t.Fatal("cross-layer stack made no hypercalls")
	}
	if ov.Percent > 1.0 {
		t.Fatalf("overhead %.2f%% exceeds the paper's <1%% claim", ov.Percent)
	}
}

func TestRTXenStackEndToEnd(t *testing.T) {
	cfg := DefaultConfig(RTXen)
	cfg.PCPUs = 2
	sys := NewSystem(cfg)
	g, err := sys.NewServerGuest("vm0", []hv.Reservation{{Budget: ms(6), Period: ms(10)}}, 256)
	if err != nil {
		t.Fatal(err)
	}
	app, err := workload.NewRTApp(g, 0, "rta", task.Params{Slice: ms(5), Period: ms(10)})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	app.Start(0)
	sys.Run(simtime.Seconds(5))
	if st := app.Task.Stats(); st.Missed != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCreditStackEndToEnd(t *testing.T) {
	cfg := DefaultConfig(Credit)
	cfg.PCPUs = 1
	sys := NewSystem(cfg)
	g, err := sys.NewWeightedGuest("vm0", 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	hog, err := workload.NewCPUHog(g, 0, "hog")
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	hog.Start(0)
	sys.Run(simtime.Seconds(1))
	sys.Host.Sync()
	if run := g.VM().TotalRun(); run < simtime.Millis(950) {
		t.Fatalf("hog ran %v of 1s", run)
	}
}

func TestTwoLevelEDFStackIsPolling(t *testing.T) {
	cfg := DefaultConfig(TwoLevelEDF)
	cfg.PCPUs = 1
	cfg.Costs = hv.CostModel{}
	sys := NewSystem(cfg)
	// Same scenario as the Figure-1 tests: RTA2 must miss.
	g1, err := sys.NewServerGuest("vm1", []hv.Reservation{{Budget: ms(5), Period: ms(15)}}, 256)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := sys.NewServerGuest("vm2", []hv.Reservation{{Budget: ms(5), Period: ms(10)}}, 256)
	g3, _ := sys.NewServerGuest("vm3", []hv.Reservation{{Budget: ms(5), Period: ms(30)}}, 256)
	rta1 := task.New(0, "rta1", task.Periodic, task.Params{Slice: ms(1), Period: ms(15)})
	rta2 := task.New(1, "rta2", task.Periodic, task.Params{Slice: ms(4), Period: ms(15)})
	rta3 := task.New(2, "r3", task.Periodic, task.Params{Slice: ms(5), Period: ms(10)})
	rta4 := task.New(3, "r4", task.Periodic, task.Params{Slice: ms(5), Period: ms(30)})
	if err := g1.RegisterOn(rta1, 0); err != nil {
		t.Fatal(err)
	}
	if err := g1.RegisterOn(rta2, 0); err != nil {
		t.Fatal(err)
	}
	if err := g2.RegisterOn(rta3, 0); err != nil {
		t.Fatal(err)
	}
	if err := g3.RegisterOn(rta4, 0); err != nil {
		t.Fatal(err)
	}
	sys.Start()
	g1.StartPeriodic(rta1, 0)
	g1.StartPeriodic(rta2, simtime.Time(ms(2)))
	g2.StartPeriodic(rta3, 0)
	g3.StartPeriodic(rta4, 0)
	sys.Run(simtime.Seconds(30))
	if r := rta2.Stats().MissRatio(); r < 0.25 {
		t.Fatalf("RTA2 miss ratio %.2f; the uncoordinated baseline should miss", r)
	}
}

func TestStackString(t *testing.T) {
	for s, want := range map[Stack]string{
		RTVirt: "rtvirt", RTXen: "rt-xen", TwoLevelEDF: "two-level-edf",
		Credit: "credit", Stack(9): "Stack(9)",
	} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", int(s), s.String())
		}
	}
}

func TestUnknownStackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown stack did not panic")
		}
	}()
	NewSystem(Config{Stack: Stack(42), PCPUs: 1})
}
