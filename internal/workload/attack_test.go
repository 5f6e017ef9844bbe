package workload

import (
	"testing"

	"rtvirt/internal/core"
	"rtvirt/internal/simtime"
)

// TestTickEvaderLearnsPeriod runs the learning attacker on a real Credit
// host with a competing hog and checks it recovers the 10ms tick period
// from latency spikes alone, then sustains the attack.
func TestTickEvaderLearnsPeriod(t *testing.T) {
	cfg := core.DefaultConfig(core.Credit)
	cfg.PCPUs = 1
	cfg.Seed = 5
	// The paper's latency-sensitive ratelimit, so post-tick wakeups are
	// prompt enough for the guard margin (see the attacks experiment).
	cfg.Credit.Ratelimit = simtime.Micros(500)
	cfg.Credit.SampledAccounting = true
	sys := core.NewSystem(cfg)

	victim, err := sys.NewWeightedGuest("victim", 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	attacker, err := sys.NewWeightedGuest("attacker", 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	hog, err := NewCPUHog(victim, 0, "hog")
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewTickEvader(attacker, 1, "evade", DefaultEvaderConfig())
	if err != nil {
		t.Fatal(err)
	}

	sys.Start()
	hog.Start(0)
	ev.Start(0)
	sys.Run(simtime.Seconds(3))

	if p := ev.Period(); p < simtime.Millis(9) || p > simtime.Millis(11) {
		t.Fatalf("learned period %v, want ~10ms (probes %d, spikes collected before attack)", p, ev.Probes)
	}
	if ev.Bursts < 50 {
		t.Errorf("only %d bursts after learning (resyncs %d)", ev.Bursts, ev.Resyncs)
	}
	if ev.BurstWork == 0 {
		t.Errorf("no clean burst work recorded")
	}
}

// TestTickEvaderConfigValidation: nonsensical configs must fail at
// construction.
func TestTickEvaderConfigValidation(t *testing.T) {
	sys := core.NewSystem(core.DefaultConfig(core.Credit))
	g, err := sys.NewWeightedGuest("g", 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	bad := []EvaderConfig{
		{},
		{ProbeDemand: 1, ProbeGap: 1, ProbeSpikes: 5, SpikeMin: 10, SpikeMax: 5, Guard: 1},
		{ProbeDemand: 1, ProbeGap: 1, ProbeSpikes: 1, SpikeMin: 1, SpikeMax: 5, Guard: 1},
	}
	for i, cfg := range bad {
		if _, err := NewTickEvader(g, i, "e", cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}
