package check_test

import (
	"testing"

	"rtvirt/internal/check"
	"rtvirt/internal/core"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
	"rtvirt/internal/workload"
)

// TestForkIdentityDemandOverride forks an RTVirt world whose only task
// runs every job for longer than it declares, and requires the fork to
// replay the original: the per-task demand override is guest state, so
// the fork must carry it.
func TestForkIdentityDemandOverride(t *testing.T) {
	cfg := core.DefaultConfig(core.RTVirt)
	cfg.PCPUs = 1
	sys := core.NewSystem(cfg)
	g, err := sys.NewGuest("vm0", 1)
	if err != nil {
		t.Fatal(err)
	}
	app, err := workload.NewRTApp(g, 0, "rta", task.Params{Slice: simtime.Millis(2), Period: simtime.Millis(10)})
	if err != nil {
		t.Fatal(err)
	}
	g.SetDemand(app.Task, simtime.Millis(5))
	sys.Start()
	app.Start(0)
	sys.Run(100 * simtime.Millisecond)
	if v := check.ForkIdentity(sys, 100*simtime.Millisecond); v != nil {
		t.Fatalf("fork lost the demand override: %v", v)
	}
}
