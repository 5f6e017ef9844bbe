package check_test

import (
	"testing"

	"rtvirt/internal/check"
	"rtvirt/internal/core"
	"rtvirt/internal/scenario"
	"rtvirt/internal/simtime"
	"rtvirt/internal/trace"
)

// mixedScenario is a representative world: one server-configured VM with a
// periodic task and a background hog, one vcpus-style VM with a periodic
// and a sporadic task. It exercises every oracle's happy path on all four
// stacks.
func mixedScenario(stack string) scenario.Scenario {
	return scenario.Scenario{
		Stack:   stack,
		PCPUs:   2,
		Seconds: 2,
		Seed:    7,
		VMs: []scenario.VM{
			{
				Name: "srv",
				Servers: []scenario.ServerSpec{
					{BudgetUS: 4000, PeriodUS: 10000},
					{BudgetUS: 3000, PeriodUS: 15000},
				},
				Tasks: []scenario.TaskSpec{
					{Name: "p0", SliceUS: 1000, PeriodUS: 10000},
					{Name: "hog", Kind: "background"},
				},
			},
			{
				Name:  "apps",
				VCPUs: 2,
				Tasks: []scenario.TaskSpec{
					{Name: "p1", SliceUS: 2000, PeriodUS: 20000},
					{Name: "s0", Kind: "sporadic", SliceUS: 500, PeriodUS: 20000, RateHz: 20},
				},
			},
		},
	}
}

// runWithSuite executes sc with the oracle suite armed and returns the
// violations.
func runWithSuite(t *testing.T, sc scenario.Scenario, opts check.Opts) []check.Violation {
	t.Helper()
	var suite *check.Suite
	_, err := scenario.Run(sc, scenario.Options{
		OnSystem: func(sys *core.System) { suite = check.Attach(sys, opts) },
	})
	if err != nil {
		t.Fatalf("scenario.Run: %v", err)
	}
	return suite.Finish()
}

func TestSuiteCleanOnAllStacks(t *testing.T) {
	for _, stack := range []string{"rtvirt", "rt-xen", "two-level-edf", "credit"} {
		t.Run(stack, func(t *testing.T) {
			for _, v := range runWithSuite(t, mixedScenario(stack), check.Opts{}) {
				t.Errorf("violation: %v", v)
			}
		})
	}
}

// TestMissOracleArmedRunStaysClean runs the RTVirt stack with the deadline
// oracle watching the confirmed-admitted periodic tasks: §3.2's guarantee
// means an admitted task set must not miss.
func TestMissOracleArmedRunStaysClean(t *testing.T) {
	vs := runWithSuite(t, mixedScenario("rtvirt"),
		check.Opts{NeverMiss: []string{"srv/p0", "apps/p1"}})
	for _, v := range vs {
		t.Errorf("violation: %v", v)
	}
}

// TestSuiteDoesNotPerturb proves arming the oracles cannot change the
// schedule: the dispatch digests of a bare run and a suite-armed run of
// the same scenario must be identical.
func TestSuiteDoesNotPerturb(t *testing.T) {
	for _, stack := range []string{"rtvirt", "rt-xen"} {
		t.Run(stack, func(t *testing.T) {
			run := func(arm bool) *check.DispatchDigest {
				d := check.NewDispatchDigest()
				opts := scenario.Options{Sinks: []trace.Sink{d}}
				if arm {
					opts.OnSystem = func(sys *core.System) { check.Attach(sys, check.Opts{}) }
				}
				if _, err := scenario.Run(mixedScenario(stack), opts); err != nil {
					t.Fatalf("scenario.Run: %v", err)
				}
				return d
			}
			bare, armed := run(false), run(true)
			if !bare.Equal(armed) {
				t.Fatalf("oracles perturbed the schedule: bare %d dispatches (digest %016x), armed %d (digest %016x)",
					bare.Events(), bare.Sum(), armed.Events(), armed.Sum())
			}
			if bare.Events() == 0 {
				t.Fatal("digest saw no dispatches; perturbation check is vacuous")
			}
		})
	}
}

// TestForkIdentityClean forks a mid-flight scenario world and verifies the
// fork replays bit-identically alongside the armed suite.
func TestForkIdentityClean(t *testing.T) {
	var suite *check.Suite
	w, err := scenario.Build(mixedScenario("rtvirt"), scenario.Options{
		OnSystem: func(sys *core.System) { suite = check.Attach(sys, check.Opts{}) },
	})
	if err != nil {
		t.Fatalf("scenario.Build: %v", err)
	}
	w.Start()
	w.Sys.Run(simtime.Second)
	v := check.ForkIdentity(w.Sys, simtime.Second)
	if v != nil {
		t.Fatalf("fork diverged: %v", v)
	}
	w.Sys.Host.Sync()
	for _, v := range suite.Finish() {
		t.Errorf("violation: %v", v)
	}
}

// TestForkIdentityNoisyCosts re-runs the fork bit-identity oracle with
// every distribution form of the cost model armed (via the scenario costs
// block, so the codec path is under test too). The cost stream is cloned
// by Fork, so noisy costs must not break replay identity.
func TestForkIdentityNoisyCosts(t *testing.T) {
	fp := func(v float64) *float64 { return &v }
	sc := mixedScenario("rtvirt")
	sc.Costs = &scenario.CostsSpec{
		Hypercall:       &scenario.CostSpec{LogNormal: &scenario.LogNormalSpec{MeanUS: 10, Sigma: 0.45}},
		CtxSwitchWarm:   &scenario.CostSpec{Normal: &scenario.NormalSpec{MeanUS: 1, StddevUS: 0.2, MinUS: 0.2}},
		CtxSwitchCold:   &scenario.CostSpec{Pareto: &scenario.ParetoSpec{LoUS: 2, HiUS: 50, Alpha: 2.2}},
		Migration:       &scenario.CostSpec{Pareto: &scenario.ParetoSpec{LoUS: 3, HiUS: 80, Alpha: 1.8}},
		ScheduleBase:    &scenario.CostSpec{Uniform: &scenario.UniformSpec{LoUS: 0.5, HiUS: 1.5}},
		GuestSwitch:     &scenario.CostSpec{Normal: &scenario.NormalSpec{MeanUS: 1, StddevUS: 0.3, MinUS: 0.1}},
		MigrationPerMiB: &scenario.CostSpec{Const: fp(0.12)},
	}
	sc.VMs[1].WorkingSetMiB = 256
	var suite *check.Suite
	w, err := scenario.Build(sc, scenario.Options{
		OnSystem: func(sys *core.System) { suite = check.Attach(sys, check.Opts{}) },
	})
	if err != nil {
		t.Fatalf("scenario.Build: %v", err)
	}
	w.Start()
	w.Sys.Run(simtime.Second)
	v := check.ForkIdentity(w.Sys, simtime.Second)
	if v != nil {
		t.Fatalf("fork diverged under noisy costs: %v", v)
	}
	w.Sys.Host.Sync()
	for _, v := range suite.Finish() {
		t.Errorf("violation: %v", v)
	}
}
