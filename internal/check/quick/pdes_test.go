package quick

import (
	"math/rand"
	"strings"
	"testing"

	"rtvirt/internal/core"
	"rtvirt/internal/sim"
)

// TestPDESIdentityOnGeneratedWorlds runs the sharded chunking-identity
// oracle directly on a few generated scenarios.
func TestPDESIdentityOnGeneratedWorlds(t *testing.T) {
	for caseN := 0; caseN < 3; caseN++ {
		seed := sim.SplitSeed(7, uint64(caseN))
		sc := Generate(rand.New(rand.NewSource(int64(seed))))
		sc.Seconds = 1
		sc.Seed = seed
		v, err := pdesIdentity(sc, seed)
		if err != nil {
			t.Logf("case %d: skipped (%v)", caseN, err)
			continue
		}
		if v != nil {
			t.Errorf("case %d: %v", caseN, v)
		}
	}
}

// TestRunIncludesPDESAxis checks that the harness drives the sharded
// oracle on every case, with no option to turn it off: one run per stack
// per case plus one sharded run per case.
func TestRunIncludesPDESAxis(t *testing.T) {
	cfg := Config{
		Seed: 11, N: 2, Seconds: 1,
		Stacks: []core.Stack{core.RTVirt},
	}
	rep := Run(cfg)
	if want := cfg.N*len(cfg.Stacks) + cfg.N; rep.Runs != want {
		t.Errorf("%d runs, want %d", rep.Runs, want)
	}
	for _, f := range rep.Failures {
		if f.Stack == "pdes" {
			t.Errorf("generated world broke PDES identity: %+v", f.Violations)
		}
	}
}

// TestBuildPDESReplicates pins the replica topology: every admitted VM
// appears once per host and sporadic tasks get a remote client.
func TestBuildPDESReplicates(t *testing.T) {
	seed := sim.SplitSeed(3, 0)
	sc := Generate(rand.New(rand.NewSource(int64(seed))))
	sc.Seconds = 1
	c, err := buildPDES(sc, seed)
	if err != nil {
		t.Skipf("world rejected: %v", err)
	}
	deps := c.Deployments()
	if len(deps) == 0 || len(deps)%pdesHosts != 0 {
		t.Fatalf("deployments %d not a multiple of %d hosts", len(deps), pdesHosts)
	}
	for _, d := range deps {
		if !strings.Contains(d.Spec.Name, "-h") {
			t.Errorf("deployment %q missing host suffix", d.Spec.Name)
		}
	}
}

func TestStripWindows(t *testing.T) {
	got := stripWindows("events=7 windows=3 now=9\nhost0 events=7\n")
	if want := "events=7 now=9\nhost0 events=7\n"; got != want {
		t.Errorf("stripWindows = %q, want %q", got, want)
	}
}

func TestFirstDiffLine(t *testing.T) {
	if got := firstDiffLine("a\nb\nc", "a\nB\nc"); !strings.Contains(got, "line 2") {
		t.Errorf("firstDiffLine = %q, want line 2", got)
	}
	if got := firstDiffLine("a\nb", "a\nb\nc"); !strings.Contains(got, "lengths differ") {
		t.Errorf("firstDiffLine = %q, want length mismatch", got)
	}
}
