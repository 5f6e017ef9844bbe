package experiments

import (
	"fmt"
	"strings"

	"rtvirt/internal/core"
	"rtvirt/internal/guest"
	"rtvirt/internal/hv"
	"rtvirt/internal/metrics"
	"rtvirt/internal/sched/credit"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
	"rtvirt/internal/trace"
	"rtvirt/internal/workload"
)

// The attacks experiment puts the same TickEvader (Zhou et al.'s
// cycle-stealing tenant) against every scheduler stack and measures how
// much CPU the attacker obtains (its VCPUs' Run in a trace.Summary of the
// host's dispatches) versus what it is charged. Exact-accounting
// schedulers — Credit's settle-on-switch, RT-Xen, RTVirt's DP-WRAP —
// charge what they grant, so stolen bandwidth sits at ~0 no matter how
// well the attacker times its bursts. The deliberately-naive
// tick-sampled Credit double (credit.Config.SampledAccounting) is the
// pre-fix Xen behaviour the attack was built for: the attacker sleeps
// across every accounting tick and obtains most of a CPU for free,
// defeating even an explicit cap.
//
// The second half exercises the AdaptiveController: convergence of an
// under-provisioned reservation onto its real demand through INC_BW
// hypercalls, and exponential backoff against a host with no capacity
// left to grant.

// AttackConfig tunes the attack/controller experiment suite.
type AttackConfig struct {
	Seed uint64
	// Duration is the per-row run length (the attack needs a few hundred
	// tick periods for stable bandwidth figures).
	Duration simtime.Duration
}

// DefaultAttackConfig runs each row for 10 simulated seconds.
func DefaultAttackConfig() AttackConfig {
	return AttackConfig{Seed: 1, Duration: simtime.Seconds(10)}
}

// AttackRow is one scheduler × accounting × cap configuration under the
// tick evader. Bandwidths are CPU fractions of the whole run.
type AttackRow struct {
	// Scheduler names the host scheduler ("credit", "rt-xen", "rtvirt").
	Scheduler string `json:"scheduler"`
	// Accounting is "exact" or "sampled" (sampled exists only for credit).
	Accounting string `json:"accounting"`
	// CapBW is the attacker's declared bandwidth cap (0 = uncapped).
	CapBW float64 `json:"cap_bw,omitempty"`
	// Learned marks the row where the attacker infers the tick period from
	// latency spikes instead of reading it from the config.
	Learned bool `json:"learned,omitempty"`
	// LearnedPeriodUS is the attacker's tick-period estimate on the
	// learning row (0 = never learned).
	LearnedPeriodUS int64 `json:"learned_period_us,omitempty"`

	ObtainedBW float64 `json:"obtained_bw"`
	ChargedBW  float64 `json:"charged_bw"`
	StolenBW   float64 `json:"stolen_bw"`
	Probes     int     `json:"probes"`
	Bursts     int     `json:"bursts"`
	Resyncs    int     `json:"resyncs"`
}

// ConvergencePoint samples the adaptive controller's state at one window
// close: the task's current slice and the window's worst response time.
type ConvergencePoint struct {
	TimeMS      int64 `json:"time_ms"`
	SliceUS     int64 `json:"slice_us"`
	WindowMaxUS int64 `json:"window_max_us"`
	Samples     int   `json:"samples"`
}

// AttackResult is the full suite: the stolen-bandwidth table plus the
// controller convergence trace and backoff counters. Its JSON encoding is
// the attacks.json artifact of rtvirt-bench -experiment attacks -out DIR.
type AttackResult struct {
	Seed    uint64      `json:"seed"`
	Seconds float64     `json:"seconds"`
	Rows    []AttackRow `json:"rows"`

	// Convergence traces an under-provisioned task being grown onto its
	// demand by the controller.
	Convergence      []ConvergencePoint `json:"convergence"`
	ConvDemandUS     int64              `json:"convergence_demand_us"`
	ConvergedSliceUS int64              `json:"converged_slice_us"`
	ConvIncs         int                `json:"convergence_incs"`
	ConvWindows      int                `json:"convergence_windows"`

	// Backoff counters from a host too full to grant further INC_BW.
	BackoffIncs    int `json:"backoff_incs"`
	BackoffRejects int `json:"backoff_rejects"`
	BackoffSkipped int `json:"backoff_skipped"`
}

// attackCase enumerates one row's configuration.
type attackCase struct {
	stack   core.Stack
	name    string
	sampled bool
	capped  bool
	learn   bool
}

// attackerCap is the capped rows' reservation: 4ms per 10ms = 0.4 CPU.
var attackerCap = hv.Reservation{Budget: simtime.Millis(4), Period: simtime.Millis(10)}

// runAttack builds a 1-PCPU host with a greedy victim and the evader and
// reports the attacker's obtained/charged/stolen bandwidth.
func runAttack(c attackCase, seed uint64, dur simtime.Duration) AttackRow {
	cfg := core.DefaultConfig(c.stack)
	cfg.PCPUs = 1
	cfg.Seed = seed
	if c.stack == core.Credit {
		// The paper's latency-sensitive Credit tuning: the 1ms default
		// ratelimit would delay the attacker's post-tick wakeup past its
		// guard margin and make the burst overlap the next tick.
		cfg.Credit.Ratelimit = simtime.Micros(500)
		cfg.Credit.SampledAccounting = c.sampled
	}
	sys := core.NewSystem(cfg)
	digest := &trace.Summary{}
	sys.Host.TraceTo(digest)

	// The victim always wants the whole CPU, so every cycle the attacker
	// obtains is contended, not idle leftover.
	var victim, attacker *guest.OS
	switch {
	case c.stack == core.Credit && c.capped:
		victim = mustGuest(sys.NewWeightedGuest("victim", 1, 256))
		attacker = mustGuest(sys.NewServerGuest("attacker", []hv.Reservation{attackerCap}, 256))
	case c.stack == core.Credit:
		victim = mustGuest(sys.NewWeightedGuest("victim", 1, 256))
		attacker = mustGuest(sys.NewWeightedGuest("attacker", 1, 256))
	default:
		// RT stacks admit by reservation: victim 0.5, attacker 0.4.
		victim = mustGuest(sys.NewServerGuest("victim",
			[]hv.Reservation{{Budget: simtime.Millis(5), Period: simtime.Millis(10)}}, 256))
		attacker = mustGuest(sys.NewServerGuest("attacker", []hv.Reservation{attackerCap}, 256))
	}
	hog, err := workload.NewCPUHog(victim, 0, "hog")
	must(err)
	ecfg := workload.DefaultEvaderConfig()
	if !c.learn {
		ecfg.TickPeriod = credit.TickEvery
	}
	ev, err := workload.NewTickEvader(attacker, 1, "evade", ecfg)
	must(err)

	sys.Start()
	hog.Start(0)
	ev.Start(0)
	sys.Run(dur)
	sys.Host.Sync() // settle open runs so exact charged covers the tail
	end := sys.Now()
	digest.Close(end)

	var obtained simtime.Duration
	for k, v := range digest.VCPUs {
		if k.VM == attacker.VM().Name {
			obtained += v.Run
		}
	}
	var charged simtime.Duration
	if cs, ok := sys.Host.Scheduler().(*credit.Scheduler); ok {
		for _, v := range attacker.VM().VCPUs {
			charged += cs.ChargedOf(v)
		}
	} else {
		// RT-Xen and DP-WRAP deplete server budget for every nanosecond
		// they grant (the BudgetOracle pins this), so charged = obtained
		// by construction and the attack cannot steal.
		charged = obtained
	}
	row := AttackRow{
		Scheduler:  c.name,
		Accounting: "exact",
		Learned:    c.learn,
		ObtainedBW: float64(obtained) / float64(end),
		ChargedBW:  float64(charged) / float64(end),
		StolenBW:   float64(obtained-charged) / float64(end),
		Probes:     ev.Probes,
		Bursts:     ev.Bursts,
		Resyncs:    ev.Resyncs,
	}
	if c.sampled {
		row.Accounting = "sampled"
	}
	if c.capped {
		row.CapBW = attackerCap.Bandwidth()
	}
	if c.learn {
		row.LearnedPeriodUS = int64(ev.Period() / simtime.Microsecond)
	}
	return row
}

// convDemand is the convergence task's real per-job demand. The task is
// declared at 100µs/10ms, so with the default 500µs VCPU slack the
// effective budget starts at 600µs — genuinely under-provisioned.
const convDemand = simtime.Microsecond * 800

// runConvergence grows an under-provisioned reservation onto its demand:
// a periodic task declared at 100µs/10ms whose jobs really need 800µs.
// The host is work-conserving, so a greedy reserved filler keeps the CPU
// contended — the controlled task lives on roughly its own reservation
// and the under-provisioning is visible as latency. The controller
// issues INC_BW until the reservation covers the demand and the backlog
// accrued while converging drains; LowFraction is set low enough that
// the converged slice is then held, not oscillated.
func runConvergence(seed uint64, dur simtime.Duration) (points []ConvergencePoint, ctrl *guest.AdaptiveController, finalSlice simtime.Duration) {
	cfg := core.DefaultConfig(core.RTVirt)
	cfg.PCPUs = 1
	cfg.Seed = seed
	sys := core.NewSystem(cfg)

	filler := mustGuest(sys.NewServerGuest("bg",
		[]hv.Reservation{{Budget: simtime.Millis(8), Period: simtime.Millis(10)}}, 256))
	hog, err := workload.NewCPUHog(filler, 0, "hog")
	must(err)

	g := mustGuest(sys.NewGuest("svc", 1))
	tk := task.New(0, "app", task.Periodic,
		task.Params{Slice: simtime.Micros(100), Period: simtime.Millis(10)})
	must(g.Register(tk))
	g.SetDemand(tk, convDemand)
	ctrl, err = guest.NewAdaptiveController(g, tk, guest.AdaptiveConfig{
		Target:      simtime.Millis(6),
		Window:      simtime.Millis(20),
		LowFraction: 0.05,
	})
	must(err)
	ctrl.OnWindow = func(now simtime.Time, winMax simtime.Duration, samples int, slice simtime.Duration) {
		points = append(points, ConvergencePoint{
			TimeMS:      int64(now.Sub(0) / simtime.Millisecond),
			SliceUS:     int64(slice / simtime.Microsecond),
			WindowMaxUS: int64(winMax / simtime.Microsecond),
			Samples:     samples,
		})
	}
	sys.Start()
	hog.Start(0)
	g.StartPeriodic(tk, 0)
	ctrl.Start(0)
	sys.Run(dur)
	return points, ctrl, tk.Params().Slice
}

// runBackoff drives the controller against a host with no headroom: the
// filler holds 0.65 CPU, the controlled task wants to grow past the
// remaining capacity, and every INC_BW beyond the first is rejected. The
// counters show the exponential backoff doing its job (few rejects, many
// skipped windows).
func runBackoff(seed uint64, dur simtime.Duration) *guest.AdaptiveController {
	cfg := core.DefaultConfig(core.RTVirt)
	cfg.PCPUs = 1
	cfg.Seed = seed
	sys := core.NewSystem(cfg)

	filler := mustGuest(sys.NewGuest("filler", 1))
	ft := task.New(0, "fill", task.Periodic,
		task.Params{Slice: simtime.Millis(6), Period: simtime.Millis(10)})
	must(filler.Register(ft))

	g := mustGuest(sys.NewGuest("svc", 1))
	tk := task.New(0, "app", task.Periodic,
		task.Params{Slice: simtime.Millis(2), Period: simtime.Millis(10)})
	must(g.Register(tk))
	g.SetDemand(tk, simtime.Millis(5))
	ctrl, err := guest.NewAdaptiveController(g, tk, guest.AdaptiveConfig{
		Target: simtime.Millis(3),
		Window: simtime.Millis(50),
	})
	must(err)

	sys.Start()
	filler.StartPeriodic(ft, 0)
	g.StartPeriodic(tk, 0)
	ctrl.Start(0)
	sys.Run(dur)
	return ctrl
}

// Attacks runs the full suite.
func Attacks(cfg AttackConfig) AttackResult {
	res := AttackResult{
		Seed:    cfg.Seed,
		Seconds: float64(cfg.Duration) / float64(simtime.Second),
	}
	cases := []attackCase{
		{core.Credit, "credit", false, false, false},
		{core.Credit, "credit", false, true, false},
		{core.Credit, "credit", true, false, false},
		{core.Credit, "credit", true, true, false},
		{core.Credit, "credit", true, false, true},
		{core.RTXen, "rt-xen", false, false, false},
		{core.RTVirt, "rtvirt", false, false, false},
	}
	for _, c := range cases {
		res.Rows = append(res.Rows, runAttack(c, cfg.Seed, cfg.Duration))
	}

	points, conv, finalSlice := runConvergence(cfg.Seed, cfg.Duration)
	res.Convergence = points
	res.ConvDemandUS = int64(convDemand / simtime.Microsecond)
	res.ConvergedSliceUS = int64(finalSlice / simtime.Microsecond)
	res.ConvIncs = conv.Incs
	res.ConvWindows = conv.Windows

	back := runBackoff(cfg.Seed, cfg.Duration)
	res.BackoffIncs = back.Incs
	res.BackoffRejects = back.Rejects
	res.BackoffSkipped = back.Skipped
	return res
}

// RenderAttacks formats the suite: the stolen-bandwidth table and the
// controller summaries.
func RenderAttacks(res AttackResult) string {
	t := metrics.NewTable("scheduler", "accounting", "cap", "obtained", "charged", "stolen", "bursts", "resyncs", "tick est")
	for _, r := range res.Rows {
		cap := "-"
		if r.CapBW > 0 {
			cap = fmt.Sprintf("%.2f", r.CapBW)
		}
		est := "declared"
		if r.Learned {
			est = fmt.Sprintf("%dµs", r.LearnedPeriodUS)
		}
		t.AddRow(r.Scheduler, r.Accounting, cap,
			fmt.Sprintf("%.3f", r.ObtainedBW),
			fmt.Sprintf("%.3f", r.ChargedBW),
			fmt.Sprintf("%.3f", r.StolenBW),
			r.Bursts, r.Resyncs, est)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Tick-evasion attack — stolen bandwidth per scheduler (seed %d, %gs)\n",
		res.Seed, res.Seconds)
	b.WriteString(t.String())
	fmt.Fprintf(&b, "Adaptive convergence: slice 100µs → %dµs (demand %dµs) in %d increases over %d windows\n",
		res.ConvergedSliceUS, res.ConvDemandUS, res.ConvIncs, res.ConvWindows)
	if len(res.Convergence) > 0 {
		n := len(res.Convergence)
		if n > 8 {
			n = 8
		}
		for _, p := range res.Convergence[:n] {
			fmt.Fprintf(&b, "  t=%4dms slice=%4dµs winmax=%6dµs samples=%d\n",
				p.TimeMS, p.SliceUS, p.WindowMaxUS, p.Samples)
		}
	}
	fmt.Fprintf(&b, "Rejection backoff on a full host: incs=%d rejects=%d skipped windows=%d\n",
		res.BackoffIncs, res.BackoffRejects, res.BackoffSkipped)
	return b.String()
}
