package experiments

import (
	"fmt"
	"strings"

	"rtvirt/internal/core"
	"rtvirt/internal/metrics"
	"rtvirt/internal/simtime"
	"rtvirt/internal/workload"
)

// IORow is one stack's outcome for the I/O-bound workload.
type IORow struct {
	Stack        core.Stack
	EndToEndP999 simtime.Duration
	CPUPhaseP999 simtime.Duration
	Violations   int
	Requests     int
}

// IOBound measures the boundary of RTVirt's guarantee (§1: the paper
// assumes CPU-bound tasks; I/O gets no timeliness promise): an RPC whose
// requests are CPU → device wait → CPU runs against CPU-bound neighbours.
// Under RTVirt the CPU phases stay bounded by the reservation, so the
// end-to-end latency degrades only by the (unmanaged) device time; under
// Credit the CPU phases themselves balloon.
func IOBound(seed uint64, duration simtime.Duration) []IORow {
	var rows []IORow
	for _, stack := range []core.Stack{core.Credit, core.RTVirt} {
		cfg := core.DefaultConfig(stack)
		cfg.PCPUs = 2
		cfg.Seed = seed
		cfg.Credit.Timeslice = simtime.Millis(1)
		cfg.Credit.Ratelimit = simtime.Micros(500)
		sys := core.NewSystem(cfg)

		var app *workload.IOApp
		ioCfg := workload.DefaultIOAppConfig()
		// Reserve at a 300µs period: each CPU phase is served within 300µs
		// even at full contention, keeping end-to-end inside the 1ms SLO
		// alongside the ~200µs device wait.
		ioCfg.ReservePeriod = simtime.Micros(300)
		if stack == core.RTVirt {
			zero := simtime.Duration(0)
			g := mustGuest(sys.NewGuestOpts("rpc", core.GuestOpts{VCPUs: 1, Slack: &zero}))
			a, err := workload.NewIOApp(g, 0, ioCfg)
			must(err)
			app = a
		} else {
			g := mustGuest(sys.NewWeightedGuest("rpc", 1, 727))
			a, err := workload.NewIOApp(g, 0, ioCfg)
			must(err)
			app = a
		}
		for i := 0; i < 19; i++ {
			g := mustGuest(sys.NewWeightedGuest(fmt.Sprintf("bg%d", i), 1, 256))
			hog, err := workload.NewCPUHog(g, 100+i, "hog")
			must(err)
			hog.Start(0)
		}
		sys.Start()
		app.Start(0)
		sys.Run(duration)
		rows = append(rows, IORow{
			Stack:        stack,
			EndToEndP999: app.Latency.Percentile(99.9),
			CPUPhaseP999: app.CPULatency.Percentile(99.9),
			Violations:   app.SLOViolations,
			Requests:     app.Latency.Count(),
		})
	}
	return rows
}

// RenderIO formats the I/O-boundary rows.
func RenderIO(rows []IORow, slo simtime.Duration) string {
	t := metrics.NewTable("Stack", "end-to-end p99.9", "CPU-phase p99.9", "SLO violations", "requests")
	for _, r := range rows {
		t.AddRow(r.Stack.String(), r.EndToEndP999.String(), r.CPUPhaseP999.String(),
			fmt.Sprintf("%d", r.Violations), r.Requests)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "I/O-bound RPC under CPU contention (end-to-end SLO %v; §1's guarantee boundary)\n", slo)
	b.WriteString(t.String())
	return b.String()
}
