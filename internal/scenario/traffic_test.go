package scenario_test

import (
	"testing"

	"rtvirt/internal/check"
	"rtvirt/internal/core"
	"rtvirt/internal/scenario"
	"rtvirt/internal/simtime"
)

// trafficScenario exercises all three open-loop traffic models at once on
// a contended RTVirt host, so the dispatch stream depends on every
// arrival process.
func trafficScenario() scenario.Scenario {
	return scenario.Scenario{
		Stack:   "rtvirt",
		PCPUs:   2,
		Seconds: 2,
		Seed:    21,
		VMs: []scenario.VM{
			{
				Name: "front",
				Tasks: []scenario.TaskSpec{
					{Name: "web", Kind: "sporadic", SliceUS: 300, PeriodUS: 4000,
						Arrivals: &scenario.ArrivalSpec{Diurnal: &scenario.DiurnalSpec{
							BaseHz: 40, PeakHz: 300, DayMS: 500}}},
					{Name: "api", Kind: "sporadic", SliceUS: 200, PeriodUS: 3000,
						Arrivals: &scenario.ArrivalSpec{MMPP: &scenario.MMPPSpec{
							RatesHz: []float64{50, 250}, SojournMS: []int64{80, 40}}}},
				},
			},
			{
				Name: "back",
				Tasks: []scenario.TaskSpec{
					{Name: "burst", Kind: "sporadic", SliceUS: 250, PeriodUS: 5000,
						Arrivals: &scenario.ArrivalSpec{Flash: &scenario.FlashCrowdSpec{
							BaseHz: 30, Surges: []scenario.SurgeSpec{
								{AtMS: 500, PeakHz: 500, RampMS: 100, DecayMS: 400}}}}},
					{Name: "rt", SliceUS: 800, PeriodUS: 10000},
				},
			},
		},
	}
}

// TestTrafficDeterminism runs the same seeded traffic scenario twice and
// requires an identical dispatch digest: open-loop arrival streams are a
// pure function of the seed.
func TestTrafficDeterminism(t *testing.T) {
	run := func() (uint64, int) {
		t.Helper()
		dig := check.NewDispatchDigest()
		w, err := scenario.Build(trafficScenario(), scenario.Options{
			OnSystem: func(sys *core.System) { sys.Host.TraceTo(dig) },
		})
		if err != nil {
			t.Fatalf("scenario.Build: %v", err)
		}
		w.Start()
		w.Sys.Run(simtime.Seconds(2))
		w.Sys.Host.Sync()
		return dig.Sum(), dig.Events()
	}

	firstSum, firstN := run()
	againSum, againN := run()
	if firstN < 1000 {
		t.Fatalf("only %d dispatch events; traffic scenario is degenerate", firstN)
	}
	if firstSum != againSum || firstN != againN {
		t.Errorf("reruns diverge: digest %x (%d events), then %x (%d events)",
			firstSum, firstN, againSum, againN)
	}
}
