package quick

import (
	"math/rand"
	"strings"
	"testing"

	"rtvirt/internal/core"
	"rtvirt/internal/sim"
)

// TestPDESIdentityOnGeneratedWorlds runs the sharded identity oracle
// directly on a few generated scenarios.
func TestPDESIdentityOnGeneratedWorlds(t *testing.T) {
	for caseN := 0; caseN < 3; caseN++ {
		seed := sim.SplitSeed(7, uint64(caseN))
		sc := Generate(rand.New(rand.NewSource(int64(seed))))
		sc.Seconds = 1
		sc.Seed = seed
		v, err := pdesIdentity(sc, seed, DefaultShards)
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
// oracle by default and that a one-entry Shards removes exactly those
// runs.
func TestRunIncludesPDESAxis(t *testing.T) {
	cfg := Config{
		Seed: 11, N: 2, Seconds: 1,
		Stacks: []core.Stack{core.RTVirt},
	}
	with := Run(cfg)
	cfg.Shards = []int{1}
	without := Run(cfg)
	if got := with.Runs - without.Runs; got != cfg.N {
		t.Errorf("PDES axis added %d runs, want %d", got, cfg.N)
	}
	for _, f := range with.Failures {
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

func TestFirstDiffLine(t *testing.T) {
	if got := firstDiffLine("a\nb\nc", "a\nB\nc"); !strings.Contains(got, "line 2") {
		t.Errorf("firstDiffLine = %q, want line 2", got)
	}
	if got := firstDiffLine("a\nb", "a\nb\nc"); !strings.Contains(got, "lengths differ") {
		t.Errorf("firstDiffLine = %q, want length mismatch", got)
	}
}
