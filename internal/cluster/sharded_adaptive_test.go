package cluster

import (
	"fmt"
	"strings"
	"testing"

	"rtvirt/internal/dist"
	"rtvirt/internal/guest"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// buildShardedAdaptive deploys one VM per host carrying two live adaptive
// controllers pulling in opposite directions: "web" is a client-driven
// sporadic task squeezed under a tight latency target (INC_BW pressure),
// "lazy" an over-provisioned periodic task against a high hysteresis
// floor (DEC_BW pressure). Controllers are host-local machinery — they
// observe the resident host's trace bus and actuate through the resident
// guest — so their retuning must be invariant to the executor grouping.
func buildShardedAdaptive(t *testing.T) *Sharded {
	t.Helper()
	cfg := DefaultShardedConfig()
	c := NewSharded(cfg)
	for h := 0; h < cfg.Hosts; h++ {
		spec := VMSpec{
			Name:  fmt.Sprintf("svc%d", h),
			VCPUs: 2,
			Tasks: []TaskSpec{
				{Name: "web", Kind: task.Sporadic,
					Params: task.Params{Slice: simtime.Micros(200), Period: simtime.Millis(1)},
					Adaptive: &guest.AdaptiveConfig{
						// Below the ~200µs service time, so the window max
						// always breaches and the controller climbs to its
						// MaxSlice ceiling — deterministic INC_BW traffic.
						Target:   simtime.Micros(150),
						Window:   simtime.Millis(20),
						MaxSlice: simtime.Micros(600),
					}},
				{Name: "lazy", Kind: task.Periodic,
					Params: task.Params{Slice: simtime.Micros(1500), Period: simtime.Millis(10)},
					Adaptive: &guest.AdaptiveConfig{
						Target:      simtime.Millis(8),
						Window:      simtime.Millis(20),
						MinSlice:    simtime.Micros(300),
						LowFraction: 0.9,
					}},
				{Name: "bg", Kind: task.Background},
			},
		}
		d, err := c.Deploy(h, spec)
		if err != nil {
			t.Fatalf("deploy %s: %v", spec.Name, err)
		}
		if _, err := c.AddRemoteClient((h+1)%cfg.Hosts, d, 0,
			cfg.Lookahead+simtime.Micros(int64(40*h)),
			dist.Uniform{Lo: simtime.Micros(400), Hi: simtime.Millis(2)}, nil, 0); err != nil {
			t.Fatalf("client for %s: %v", spec.Name, err)
		}
	}
	return c
}

// TestShardedAdaptiveGroupInvariance pins the adaptive cluster over
// 400ms to testdata/sharded-adaptive-400ms.txt. The digest includes each
// controller's incs/decs/rejects/windows counters and the task's final
// slice, so any change in retuning shows up directly.
func TestShardedAdaptiveGroupInvariance(t *testing.T) {
	run := runSharded(t, buildShardedAdaptive(t), simtime.Millis(400))
	checkGolden(t, "sharded-adaptive-400ms.txt", run)
	c, base := run.c, run.digest

	// Non-vacuity: both directions of actuation must have fired
	// somewhere, and the digest must carry the controller lines.
	var incs, decs, windows int
	for _, d := range c.Deployments() {
		for i := range d.Spec.Tasks {
			if ct := d.Controller(i); ct != nil {
				incs += ct.Incs
				decs += ct.Decs
				windows += ct.Windows
			}
		}
	}
	if windows == 0 {
		t.Fatal("no controller windows closed; world is degenerate")
	}
	if incs == 0 {
		t.Error("no INC_BW issued anywhere — the web controllers never grew")
	}
	if decs == 0 {
		t.Error("no DEC_BW issued anywhere — the lazy controllers never shrank")
	}
	if !strings.Contains(base, "ctrl ") {
		t.Fatalf("digest carries no controller lines:\n%s", base)
	}

}
