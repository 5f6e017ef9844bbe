// Package quick is the randomized property harness over the invariant
// oracles: it draws seeded random scenarios (Generate), runs each one
// under all four scheduler stacks with the full check.Suite armed plus a
// mid-run fork bit-identity probe, and shrinks any violating world to a
// minimal reproducer (Shrink) that rtvirt-sim can replay directly.
//
// Three front ends drive it: bounded deterministic property tests in this
// package (go test), native fuzz targets over the scenario codec, and
// `rtvirt-bench -experiment quickcheck -n N -seed S` for nightly soaks.
package quick

import (
	"math/rand"

	"rtvirt/internal/check"
	"rtvirt/internal/core"
	"rtvirt/internal/scenario"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
)

// Config tunes a quickcheck run. The zero value of every optional field
// selects the default; only Seed and N are usually set.
type Config struct {
	// Seed fixes the whole run: case k draws its scenario and its
	// simulation streams from sim.SplitSeed(Seed, k).
	Seed uint64
	// N is the number of generated scenarios (default 25). Each runs once
	// per stack.
	N int
	// Seconds is the simulated length per run (default 2).
	Seconds int64
	// Stacks overrides the stacks exercised (default: all four).
	Stacks []core.Stack
	// Shards is the executor-group axis of the sharded-PDES identity
	// oracle: each scenario is replicated onto a small sharded cluster and
	// run once per group count, and every digest must match the first
	// entry's (default DefaultShards = 1, 2, 4). A single entry disables
	// the comparison.
	Shards []int
}

// Failure is one violating run, shrunk to a minimal reproducer. Scenario
// is complete (stack and seed included), so marshaling it yields a JSON
// file rtvirt-sim runs as-is.
type Failure struct {
	Case       int               `json:"case"`
	Stack      string            `json:"stack"`
	Seed       uint64            `json:"seed"`
	Violations []check.Violation `json:"violations"`
	Scenario   scenario.Scenario `json:"scenario"`
	// ShrinkSteps counts accepted reductions; ShrinkRuns the simulations
	// the shrinker spent.
	ShrinkSteps int `json:"shrink_steps"`
	ShrinkRuns  int `json:"shrink_runs"`
}

// Report summarizes a quickcheck run.
type Report struct {
	Seed     uint64
	Cases    int
	Runs     int
	PDES     int // executor group counts the sharded identity oracle compared (0 = off)
	Skipped  int // builds rejected by admission control
	Failures []Failure
}

// AllStacks is the default stack set.
var AllStacks = []core.Stack{core.RTVirt, core.RTXen, core.TwoLevelEDF, core.Credit}

// Run executes the quickcheck harness and returns its report. Failures
// come back shrunk; the run itself never returns an error for a violating
// or unbuildable scenario (those are Failures and Skipped respectively).
func Run(cfg Config) *Report {
	if cfg.N <= 0 {
		cfg.N = 25
	}
	if cfg.Seconds <= 0 {
		cfg.Seconds = 2
	}
	if len(cfg.Stacks) == 0 {
		cfg.Stacks = AllStacks
	}
	if len(cfg.Shards) == 0 {
		cfg.Shards = DefaultShards
	}
	rep := &Report{Seed: cfg.Seed, Cases: cfg.N}
	if len(cfg.Shards) >= 2 {
		rep.PDES = len(cfg.Shards)
	}
	for i := 0; i < cfg.N; i++ {
		caseSeed := sim.SplitSeed(cfg.Seed, uint64(i))
		sc := Generate(rand.New(rand.NewSource(int64(caseSeed))))
		sc.Seconds = cfg.Seconds
		sc.Seed = caseSeed
		for _, stack := range cfg.Stacks {
			rep.Runs++
			vs, err := runOne(sc, stack, true)
			if err != nil {
				rep.Skipped++
				continue
			}
			if len(vs) == 0 {
				continue
			}
			min, minVs, steps, runs := Shrink(sc, stack)
			rep.Failures = append(rep.Failures, Failure{
				Case:        i,
				Stack:       stack.String(),
				Seed:        caseSeed,
				Violations:  minVs,
				Scenario:    min,
				ShrinkSteps: steps,
				ShrinkRuns:  runs,
			})
		}
		if len(cfg.Shards) < 2 {
			continue
		}
		// The sharded-PDES identity oracle is stack-independent (the
		// replica runs under the sharded default stack), so it sits
		// outside the stacks loop.
		rep.Runs++
		v, err := pdesIdentity(sc, caseSeed, cfg.Shards)
		if err != nil {
			rep.Skipped++
			continue
		}
		if v != nil {
			rep.Failures = append(rep.Failures, Failure{
				Case:       i,
				Stack:      "pdes",
				Seed:       caseSeed,
				Violations: []check.Violation{*v},
				Scenario:   sc,
			})
		}
	}
	return rep
}

// runOne builds sc under stack with the oracle suite armed, runs it (with
// a half-time fork identity probe when forkCheck is set, as the harness
// always does), and returns the violations. A build error means admission
// control rejected the world.
func runOne(sc scenario.Scenario, stack core.Stack, forkCheck bool) ([]check.Violation, error) {
	sc.Stack = stack.String()
	opts := check.Opts{}
	if stack == core.RTVirt {
		opts.NeverMiss = NeverMiss(sc)
	}
	var suite *check.Suite
	w, err := scenario.Build(sc, scenario.Options{
		OnSystem: func(sys *core.System) { suite = check.Attach(sys, opts) },
	})
	if err != nil {
		return nil, err
	}
	w.Start()
	total := simtime.Duration(w.Seconds) * simtime.Second
	var forkV *check.Violation
	if forkCheck {
		half := total / 2
		w.Sys.Run(half)
		forkV = check.ForkIdentity(w.Sys, total-half)
	} else {
		w.Sys.Run(total)
	}
	w.Finish()
	vs := suite.Finish()
	if forkV != nil {
		vs = append(vs, *forkV)
	}
	return vs, nil
}
