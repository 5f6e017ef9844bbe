package experiments

import (
	"fmt"
	"os"
	"testing"

	"rtvirt/internal/core"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
	"rtvirt/internal/workload"
)

// TestSoakMixedWorkload runs ten simulated minutes of everything at once —
// periodic video streams, sporadic memcached, I/O-bound RPCs, dynamic
// registration churn, background hogs — and checks the global guarantees
// and kernel invariants at the end.
func TestSoakMixedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("ten simulated minutes")
	}
	if os.Getenv("RTVIRT_SOAK") == "" {
		t.Skip("long soak; set RTVIRT_SOAK=1 to run (the nightly workflow does)")
	}
	cfg := core.DefaultConfig(core.RTVirt)
	cfg.PCPUs = 8
	cfg.Seed = 99
	sys := core.NewSystem(cfg)

	// Three steady video VMs.
	var steady []*workload.VideoStream
	for i, fps := range []int{24, 30, 48} {
		g := mustGuest(sys.NewGuest(fmt.Sprintf("video%d", i), 1))
		vs, err := workload.NewVideoStream(g, i, fps)
		must(err)
		steady = append(steady, vs)
	}
	// Two memcached shards.
	var shards []*workload.Memcached
	for i := 0; i < 2; i++ {
		zero := simtime.Duration(0)
		g := mustGuest(sys.NewGuestOpts(fmt.Sprintf("mc%d", i), core.GuestOpts{VCPUs: 1, Slack: &zero}))
		mc, err := workload.NewMemcached(g, 100+i, workload.DefaultMemcachedConfig())
		must(err)
		shards = append(shards, mc)
	}
	// One I/O-bound RPC service.
	zero := simtime.Duration(0)
	gio := mustGuest(sys.NewGuestOpts("rpc", core.GuestOpts{VCPUs: 1, Slack: &zero}))
	rpc, err := workload.NewIOApp(gio, 200, workload.DefaultIOAppConfig())
	must(err)
	// Two background hogs.
	for i := 0; i < 2; i++ {
		g := mustGuest(sys.NewWeightedGuest(fmt.Sprintf("bg%d", i), 1, 256))
		hog, err := workload.NewCPUHog(g, 300+i, "hog")
		must(err)
		hog.Start(0)
	}
	// A churn VM registering an RTA every 7 s from 1 s on and
	// unregistering it 5 s later.
	gch := mustGuest(sys.NewGuestOpts("churn", core.GuestOpts{VCPUs: 2, MaxVCPUs: 4}))
	var churned []*task.Task
	id := 1000
	dur := 10 * simtime.Minute
	var acts []timedAction
	for at := simtime.Time(simtime.Second); at <= simtime.Time(dur); at = at.Add(simtime.Seconds(7)) {
		var tk *task.Task
		acts = append(acts, timedAction{at, func(now simtime.Time) {
			prof := workload.VideoProfiles[int(now/simtime.Time(simtime.Seconds(7)))%len(workload.VideoProfiles)]
			next := task.New(id, fmt.Sprintf("churn%d", id), task.Periodic, prof.Params)
			id++
			if err := gch.Register(next); err == nil {
				gch.StartPeriodic(next, now)
				churned = append(churned, next)
				tk = next
			}
		}}, timedAction{at.Add(simtime.Seconds(5)), func(simtime.Time) {
			if tk != nil {
				must(gch.Unregister(tk))
			}
		}})
	}

	sys.Start()
	for _, vs := range steady {
		vs.App.Start(0)
	}
	for _, mc := range shards {
		mc.Start(0)
	}
	rpc.Start(0)

	runActing(sys, simtime.Time(dur), acts)
	sys.Host.Sync()

	// Steady video: zero misses through all the churn.
	for _, vs := range steady {
		if st := vs.App.Task.Stats(); st.Missed != 0 {
			t.Errorf("%s missed %d/%d", vs.App.Task.Name, st.Missed, st.Released)
		}
	}
	// memcached SLO at the 99.9th percentile.
	for i, mc := range shards {
		if p := mc.Latency.Percentile(99.9); p > simtime.Micros(500) {
			t.Errorf("mc%d p99.9 = %v", i, p)
		}
		if mc.Latency.Count() < 55000 {
			t.Errorf("mc%d served only %d", i, mc.Latency.Count())
		}
	}
	// RPC end-to-end SLO.
	if v := float64(rpc.SLOViolations) / float64(rpc.Latency.Count()); v > 0.001 {
		t.Errorf("rpc SLO violations %.4f", v)
	}
	// Churned tasks: ≥99% deadlines overall (abandon-on-unregister counts
	// the in-flight job of each cycle).
	sum := workload.MissSummary(churned)
	if sum.Judged < 1000 {
		t.Fatalf("churn barely ran: %+v", sum)
	}
	if sum.Ratio() > 0.01 {
		t.Errorf("churn miss ratio %.4f (%d/%d)", sum.Ratio(), sum.Missed, sum.Judged)
	}
	// Kernel invariants after ten minutes of churn.
	var accounted simtime.Duration
	for _, p := range sys.Host.PCPUs() {
		accounted += p.BusyTime + p.OverheadTime + p.IdleTime
	}
	want := simtime.Duration(int64(dur) * int64(sys.Host.NumPCPUs()))
	if accounted != want {
		t.Errorf("accounting leak: %v accounted of %v", accounted, want)
	}
	if ov := sys.Overhead().Percent; ov > 1.0 {
		t.Errorf("overhead %.3f%% above the paper's <1%% envelope", ov)
	}
}
