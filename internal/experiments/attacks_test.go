package experiments

import (
	"reflect"
	"testing"

	"rtvirt/internal/simtime"
)

// shortAttackConfig keeps the suite affordable in tier-1: 3 simulated
// seconds is ~300 tick periods, plenty for stable bandwidth figures.
func shortAttackConfig() AttackConfig {
	return AttackConfig{Seed: 1, Duration: simtime.Seconds(3)}
}

func findRow(t *testing.T, res AttackResult, sched, acct string, capped, learned bool) AttackRow {
	t.Helper()
	for _, r := range res.Rows {
		if r.Scheduler == sched && r.Accounting == acct && (r.CapBW > 0) == capped && r.Learned == learned {
			return r
		}
	}
	t.Fatalf("no row %s/%s capped=%v learned=%v in %+v", sched, acct, capped, learned, res.Rows)
	return AttackRow{}
}

// TestAttackStolenBandwidth pins the experiment's headline semantics:
// exact accounting (Credit settle-on-switch, RT-Xen, DP-WRAP) never lets
// the tick evader steal, while the deliberately-naive tick-sampled
// double leaks most of a CPU — the negative test the obtained-CPU ledger
// exists to flag — and defeats an explicit cap.
func TestAttackStolenBandwidth(t *testing.T) {
	res := Attacks(shortAttackConfig())
	t.Log("\n" + RenderAttacks(res))

	// Exact accounting: charged ≈ obtained everywhere, nothing stolen.
	for _, r := range res.Rows {
		if r.Accounting != "exact" {
			continue
		}
		if r.StolenBW > 0.01 || r.StolenBW < -0.01 {
			t.Errorf("%s/exact: stolen bandwidth %.3f, want ~0", r.Scheduler, r.StolenBW)
		}
	}

	// Sampled accounting: the attacker obtains a large share and is
	// charged almost nothing for it.
	samp := findRow(t, res, "credit", "sampled", false, false)
	if samp.StolenBW < 0.2 {
		t.Errorf("credit/sampled: stolen bandwidth %.3f, want > 0.2 (obtained %.3f charged %.3f)",
			samp.StolenBW, samp.ObtainedBW, samp.ChargedBW)
	}
	if samp.Bursts < 100 {
		t.Errorf("credit/sampled: only %d bursts (resyncs %d), attack never settled", samp.Bursts, samp.Resyncs)
	}

	// The cap holds under exact accounting and is defeated under sampled:
	// credits only drain when the scheduler observes the burn.
	exCap := findRow(t, res, "credit", "exact", true, false)
	if exCap.ObtainedBW > attackerCap.Bandwidth()+0.1 {
		t.Errorf("credit/exact capped: obtained %.3f, want ≤ cap %.2f (+slack)",
			exCap.ObtainedBW, attackerCap.Bandwidth())
	}
	sampCap := findRow(t, res, "credit", "sampled", true, false)
	if sampCap.ObtainedBW < attackerCap.Bandwidth()+0.2 {
		t.Errorf("credit/sampled capped: obtained %.3f, want ≫ cap %.2f",
			sampCap.ObtainedBW, attackerCap.Bandwidth())
	}

	// The learning row must recover the real 10ms tick period from
	// latency spikes alone.
	learn := findRow(t, res, "credit", "sampled", false, true)
	if learn.LearnedPeriodUS < 9000 || learn.LearnedPeriodUS > 11000 {
		t.Errorf("learned tick period %dµs, want ~10000µs (probes %d)",
			learn.LearnedPeriodUS, learn.Probes)
	}
}

// TestAttackConvergence pins the adaptive controller halves of the
// suite: the under-provisioned slice grows until the reservation covers
// its 800µs demand (plus the backlog accrued while converging), then
// holds; and a full host triggers backoff instead of a rejection storm.
func TestAttackConvergence(t *testing.T) {
	res := Attacks(shortAttackConfig())

	// The slice must end up covering the demand net of the 500µs VCPU
	// slack, and must not run away to the period ceiling.
	if res.ConvergedSliceUS < 300 || res.ConvergedSliceUS > 3000 {
		t.Errorf("converged slice %dµs, want within [300,3000] (incs %d)",
			res.ConvergedSliceUS, res.ConvIncs)
	}
	if res.ConvIncs < 5 {
		t.Errorf("convergence took %d increases, want ≥ 5 (100µs×1.25ⁿ)", res.ConvIncs)
	}
	if n := len(res.Convergence); n < 10 {
		t.Fatalf("only %d convergence points recorded", n)
	}
	// LowFraction is below the steady-state response, so the trace must
	// be monotone non-decreasing: grow, then hold — no oscillation.
	for i := 1; i < len(res.Convergence); i++ {
		if res.Convergence[i].SliceUS < res.Convergence[i-1].SliceUS {
			t.Errorf("slice shrank mid-convergence: %dµs → %dµs at t=%dms",
				res.Convergence[i-1].SliceUS, res.Convergence[i].SliceUS, res.Convergence[i].TimeMS)
		}
	}
	last := res.Convergence[len(res.Convergence)-1]
	if last.WindowMaxUS > 6000 {
		t.Errorf("final window max %dµs still above the 6000µs target", last.WindowMaxUS)
	}

	if res.BackoffRejects < 2 {
		t.Errorf("backoff world saw %d rejects, want ≥ 2", res.BackoffRejects)
	}
	if res.BackoffSkipped < res.BackoffRejects {
		t.Errorf("backoff skipped %d windows for %d rejects — backoff not engaging",
			res.BackoffSkipped, res.BackoffRejects)
	}
}

// TestAttackDeterminism: the whole suite is a pure function of its
// config.
func TestAttackDeterminism(t *testing.T) {
	cfg := AttackConfig{Seed: 7, Duration: simtime.Seconds(1)}
	a, b := Attacks(cfg), Attacks(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config, different results:\n%+v\n%+v", a, b)
	}
}
