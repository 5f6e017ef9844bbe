package check_test

import (
	"testing"

	"rtvirt/internal/check"
	"rtvirt/internal/core"
	"rtvirt/internal/scenario"
	"rtvirt/internal/simtime"
)

// adaptiveScenario is a contended RTVirt world where two adaptive
// controllers actuate in opposite directions: "grow" is an open-loop
// sporadic stream whose declared slice is far below the queueing it
// suffers behind the heavy periodic neighbour (INC_BW pressure), and
// "shrink" is generously over-provisioned against a high hysteresis
// floor (DEC_BW pressure).
func adaptiveScenario() scenario.Scenario {
	return scenario.Scenario{
		Stack:   "rtvirt",
		PCPUs:   1,
		Seconds: 3,
		Seed:    13,
		VMs: []scenario.VM{
			{
				Name: "heavy",
				Tasks: []scenario.TaskSpec{
					{Name: "bulk", SliceUS: 4000, PeriodUS: 10000},
				},
			},
			{
				Name: "svc",
				Tasks: []scenario.TaskSpec{
					{
						Name: "grow", Kind: "sporadic", SliceUS: 100, PeriodUS: 2000, RateHz: 500,
						Arrivals: &scenario.ArrivalSpec{Poisson: &scenario.PoissonSpec{RateHz: 300}},
						Adaptive: &scenario.AdaptiveSpec{TargetUS: 500, WindowMS: 20, MaxSliceUS: 800},
					},
					{
						Name: "shrink", SliceUS: 1500, PeriodUS: 10000,
						Adaptive: &scenario.AdaptiveSpec{
							TargetUS: 8000, WindowMS: 20, MinSliceUS: 300, LowFraction: 0.9,
						},
					},
				},
			},
		},
	}
}

// TestAdaptiveControllerForkIdentity forks a world mid-run while both
// adaptive controllers are live and verifies bit-identical replay: the
// controllers' ForkHandler must carry the window clock, hysteresis and
// backoff state, and re-attach the clone to the forked host's trace bus,
// so the fork keeps issuing the same INC/DEC_BW stream. The full oracle
// suite stays armed throughout.
func TestAdaptiveControllerForkIdentity(t *testing.T) {
	var suite *check.Suite
	w, err := scenario.Build(adaptiveScenario(), scenario.Options{
		OnSystem: func(sys *core.System) { suite = check.Attach(sys, check.Opts{}) },
	})
	if err != nil {
		t.Fatalf("scenario.Build: %v", err)
	}
	if n := len(w.Controllers()); n != 2 {
		t.Fatalf("Controllers() = %d, want 2", n)
	}
	w.Start()
	w.Sys.Run(simtime.Second)

	// The fork must happen while retuning is actually in flight —
	// otherwise the test collapses to the plain fork-identity case.
	grow, shrink := w.Controllers()[0], w.Controllers()[1]
	if grow.Incs == 0 {
		t.Errorf("grow controller issued no INC_BW before the fork (windows %d, rejects %d)",
			grow.Windows, grow.Rejects)
	}
	if shrink.Decs == 0 {
		t.Errorf("shrink controller issued no DEC_BW before the fork (windows %d)", shrink.Windows)
	}

	v := check.ForkIdentity(w.Sys, simtime.Second)
	if v != nil {
		t.Fatalf("fork diverged with live adaptive controllers: %v", v)
	}
	w.Sys.Host.Sync()
	for _, v := range suite.Finish() {
		t.Errorf("violation: %v", v)
	}
	if grow.Incs+grow.Rejects+shrink.Decs == 0 {
		t.Error("controllers idle across the whole run; fork probe was vacuous")
	}
}
