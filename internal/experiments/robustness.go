package experiments

import (
	"fmt"
	"sort"
	"strings"

	"rtvirt/internal/clone"
	"rtvirt/internal/metrics"
	"rtvirt/internal/runner"
	"rtvirt/internal/simtime"
)

// RobustnessResult summarises a headline claim across random seeds.
type RobustnessResult struct {
	Claim string
	// Held counts seeds where the claim held, out of Runs.
	Held, Runs int
	// Values holds the per-seed headline metric (for the spread columns).
	Values []float64
	Unit   string
}

// Min/Median/Max report the spread of the headline metric.
func (r RobustnessResult) Min() float64    { return r.quantile(0) }
func (r RobustnessResult) Median() float64 { return r.quantile(0.5) }
func (r RobustnessResult) Max() float64    { return r.quantile(1) }

func (r RobustnessResult) quantile(q float64) float64 {
	if len(r.Values) == 0 {
		return 0
	}
	v := append([]float64(nil), r.Values...)
	sort.Float64s(v)
	idx := int(q * float64(len(v)-1))
	return v[idx]
}

// robustnessSeed is one seed's worth of claim outcomes, in claim order.
type robustnessSeed [5]struct {
	Held  bool
	Value float64
}

// Robustness re-runs the paper's headline experiments across seeds and
// checks that every claim survives the randomness of the workloads — the
// difference between reproducing a number and reproducing a finding.
// Seeds are independent simulations, so they fan out over runner.Default()
// workers; results are folded back in seed order.
func Robustness(runs int, duration simtime.Duration) []RobustnessResult {
	if runs <= 0 {
		runs = 5
	}
	out := []RobustnessResult{
		{Claim: "Fig1: two-level EDF misses RTA2; RTVirt does not", Unit: "baseline miss %"},
		{Claim: "Fig5a: RTVirt meets the 500µs SLO; Credit does not", Unit: "RTVirt p99.9 µs"},
		{Claim: "Fig5a: RTVirt uses ≥45% less bandwidth than RT-Xen A", Unit: "saving %"},
		{Claim: "T6: RTVirt admits all 100 RTAs at <1% overhead, below RT-Xen", Unit: "RTVirt overhead %"},
		{Claim: "Fork at t/2 replays the future bit-identically", Unit: "p99.9 µs"},
	}
	seeds := make([]uint64, runs)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	perSeed := runner.Map(0, seeds, func(seed uint64) robustnessSeed {
		return robustnessRun(seed, duration)
	})
	for _, rs := range perSeed {
		for i := range out {
			record(&out[i], rs[i].Held, rs[i].Value)
		}
	}
	return out
}

// robustnessRun evaluates every headline claim under one seed.
func robustnessRun(seed uint64, duration simtime.Duration) robustnessSeed {
	var rs robustnessSeed

	// Figure 1.
	f1 := Figure1(seed, simtime.MinDur(duration, 30*simtime.Second))
	rs[0].Held = f1.Baseline["RTA2"] > 0.25 && f1.RTVirt["RTA2"] == 0
	rs[0].Value = 100 * f1.Baseline["RTA2"]

	// Figure 5a.
	cfg5 := DefaultFigure5Config()
	cfg5.Seed = seed
	cfg5.Duration = duration
	rows := Figure5a(cfg5)
	byArm := map[Arm]Figure5Row{}
	for _, r := range rows {
		byArm[r.Arm] = r
	}
	rtv, credit, xenA := byArm[ArmRTVirt], byArm[ArmCredit], byArm[ArmRTXenA]
	rs[1].Held = rtv.SLOMet && !credit.SLOMet
	rs[1].Value = rtv.P999.Micros()
	saving := 1 - rtv.AllocatedBW/xenA.AllocatedBW
	rs[2].Held = saving >= 0.45
	rs[2].Value = 100 * saving

	// Table 6 (single-RTA scenario).
	t6cfg := DefaultTable6Config()
	t6cfg.Seed = seed
	t6cfg.Duration = simtime.MinDur(duration, 10*simtime.Second)
	t6 := Table6(SingleRTAVMs, t6cfg)
	byFw := map[string]Table6Row{}
	for _, r := range t6 {
		byFw[r.Framework] = r
	}
	rtv6, xen6 := byFw["RTVirt"], byFw["RT-Xen"]
	rs[3].Held = rtv6.RTAsAdmitted == 100 && rtv6.OverheadPct < 1.0 &&
		rtv6.OverheadPct < xen6.OverheadPct
	rs[3].Value = rtv6.OverheadPct

	// Fork determinism: the RTVirt memcached system run cold to t=D versus
	// warmed to t=D/2, forked and run out. The claim holds when both worlds
	// report the identical latency distribution — the contract every
	// warm-start sweep in this package leans on.
	d := simtime.MinDur(duration, 20*simtime.Second)
	coldSys := newMemcachedSystem(ArmRTVirt, 2, seed)
	coldMC := addMemcachedVM(coldSys, ArmRTVirt, 0, 727)
	coldSys.Start()
	coldMC.Start(0)
	coldSys.Run(d)

	warmSys := newMemcachedSystem(ArmRTVirt, 2, seed)
	warmMC := addMemcachedVM(warmSys, ArmRTVirt, 0, 727)
	warmSys.Start()
	warmMC.Start(0)
	warmSys.Run(d / 2)
	fsys, fctx := warmSys.Fork()
	fmc := clone.Get(fctx, warmMC)
	fsys.Run(d - d/2)

	rs[4].Held = fmc.Latency.Count() == coldMC.Latency.Count() &&
		fmc.Latency.Mean() == coldMC.Latency.Mean() &&
		fmc.Latency.Percentile(99.9) == coldMC.Latency.Percentile(99.9)
	rs[4].Value = fmc.Latency.Percentile(99.9).Micros()
	return rs
}

func record(r *RobustnessResult, held bool, value float64) {
	r.Runs++
	if held {
		r.Held++
	}
	r.Values = append(r.Values, value)
}

// RenderRobustness formats the summary.
func RenderRobustness(results []RobustnessResult) string {
	t := metrics.NewTable("Claim", "held", "metric", "min", "median", "max")
	for _, r := range results {
		t.AddRow(r.Claim, fmt.Sprintf("%d/%d", r.Held, r.Runs), r.Unit,
			fmt.Sprintf("%.2f", r.Min()), fmt.Sprintf("%.2f", r.Median()),
			fmt.Sprintf("%.2f", r.Max()))
	}
	var b strings.Builder
	b.WriteString("Robustness — headline claims across seeds\n")
	b.WriteString(t.String())
	return b.String()
}
