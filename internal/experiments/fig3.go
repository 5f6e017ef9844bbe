package experiments

import (
	"fmt"
	"strings"

	"rtvirt/internal/core"
	"rtvirt/internal/csa"
	"rtvirt/internal/dist"
	"rtvirt/internal/guest"
	"rtvirt/internal/hv"
	"rtvirt/internal/metrics"
	"rtvirt/internal/runner"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
	"rtvirt/internal/workload"
)

// Figure3Row is one group's bandwidth accounting (the bars of Figure 3)
// plus the timeliness outcome of both frameworks.
type Figure3Row struct {
	Group string
	// RTAReq is the summed task bandwidth (the "RTA-Req" bar), in CPUs.
	RTAReq float64
	// RTXenAllocated is the summed CSA interface bandwidth.
	RTXenAllocated float64
	// RTXenClaimed is the CPUs the analysis sets aside (DMPR stand-in).
	RTXenClaimed float64
	// RTVirtAllocated is the summed RTVirt reservation bandwidth.
	RTVirtAllocated float64

	RTXenMisses  metrics.MissSummary
	RTVirtMisses metrics.MissSummary

	// Interfaces records the per-RTA CSA interfaces (Table 2 for NH-Dec).
	Interfaces []csa.Interface
	RTVirtRes  []float64 // per-VM RTVirt reservation bandwidth
}

// Figure3Config tunes the periodic-group experiment.
type Figure3Config struct {
	Seed     uint64
	Duration simtime.Duration // 100 s in the paper
	PCPUs    int
	Sporadic bool // run the §4.2 sporadic variant instead of periodic
	Requests int  // sporadic requests per RTA (100 in the paper)
	// Parallel is the worker count for the group × framework fan-out;
	// <= 0 uses runner.Default(). Results are identical at any setting.
	Parallel int
	// Costs overrides the platform cost model (nil = hv.DefaultCosts, the
	// paper's flat §4 constants). The fidelity ablation passes
	// hv.CalibratedCosts here.
	Costs *hv.CostModel
}

// DefaultFigure3Config mirrors §4.2.
func DefaultFigure3Config() Figure3Config {
	return Figure3Config{Seed: 1, Duration: simtime.Seconds(100), PCPUs: 15, Requests: 100}
}

// Figure3 runs every Table-1 group under both frameworks and reports the
// bandwidth bars of Figure 3 (and §4.2's sporadic variant when
// cfg.Sporadic is set). The group × framework grid — 12 fully independent
// simulations — is fanned out over cfg.Parallel workers; rows come back in
// group order regardless of completion order.
func Figure3(cfg Figure3Config) []Figure3Row {
	groups := Table1Groups()
	arms := make([]fig3Arm, 0, 2*len(groups))
	for _, g := range groups {
		arms = append(arms, fig3Arm{group: g, rtxen: true}, fig3Arm{group: g, rtxen: false})
	}
	parts := runner.Map(cfg.Parallel, arms, func(a fig3Arm) Figure3Row {
		return runGroupArm(a.group, cfg, a.rtxen)
	})
	rows := make([]Figure3Row, len(groups))
	for i := range groups {
		rows[i] = mergeFig3Arms(parts[2*i], parts[2*i+1])
	}
	return rows
}

// Table2 reproduces Table 2: the NH-Dec group's per-RTA configuration
// under RT-Xen (CSA interfaces) and RTVirt (slack-padded reservations).
func Table2(cfg Figure3Config) Figure3Row {
	for _, group := range Table1Groups() {
		if group.Name == "NH-Dec" {
			return runGroup(group, cfg)
		}
	}
	panic("experiments: NH-Dec group missing")
}

// fig3Arm identifies one independent simulation of the Figure-3 grid.
type fig3Arm struct {
	group RTAGroup
	rtxen bool
}

func runGroup(group RTAGroup, cfg Figure3Config) Figure3Row {
	parts := runner.Map(cfg.Parallel, []bool{true, false}, func(rtxen bool) Figure3Row {
		return runGroupArm(group, cfg, rtxen)
	})
	return mergeFig3Arms(parts[0], parts[1])
}

// mergeFig3Arms combines the RT-Xen arm's row (which carries the group
// identity and offline analysis) with the RTVirt arm's fields.
func mergeFig3Arms(xen, rtv Figure3Row) Figure3Row {
	xen.RTVirtAllocated = rtv.RTVirtAllocated
	xen.RTVirtMisses = rtv.RTVirtMisses
	xen.RTVirtRes = rtv.RTVirtRes
	return xen
}

// runGroupArm runs one framework's simulation for one group. The RT-Xen
// arm also carries the group bookkeeping (bandwidth request, offline CSA)
// so mergeFig3Arms can assemble a complete row from the two halves.
func runGroupArm(group RTAGroup, cfg Figure3Config, rtxen bool) Figure3Row {
	row := Figure3Row{Group: group.Name, RTAReq: group.Bandwidth()}
	if !rtxen {
		sys := newSys(core.RTVirt, cfg)
		tasks := deployGroup(sys, group, nil, cfg)
		for _, g := range sys.Guests() {
			row.RTVirtRes = append(row.RTVirtRes, g.AllocatedBandwidth())
			row.RTVirtAllocated += g.AllocatedBandwidth()
		}
		sys.Run(cfg.Duration + simtime.Seconds(5))
		row.RTVirtMisses = workload.MissSummary(tasks)
		return row
	}

	// Offline CSA for the RT-Xen arm: one interface per (single-RTA) VM.
	var vmConfigs []csa.VMConfig
	for i, p := range group.RTAs {
		// CARTS works at the resolution of its inputs: whole milliseconds.
		iface, ok := csa.BestInterfaceQ([]task.Params{p},
			csa.DefaultCandidates([]task.Params{p}), ms(1))
		if !ok {
			panic(fmt.Sprintf("experiments: no CSA interface for %v", p))
		}
		row.Interfaces = append(row.Interfaces, iface)
		vmConfigs = append(vmConfigs, csa.VMConfig{
			Name:   fmt.Sprintf("vm%d", i),
			VCPUs:  []csa.Interface{iface},
			TaskBW: p.Bandwidth(),
		})
	}
	row.RTXenAllocated = csa.AllocatedCPUs(vmConfigs)
	if claimed, ok := csa.ClaimedCPUs(vmConfigs, 64); ok {
		row.RTXenClaimed = float64(claimed)
	}

	sys := newSys(core.RTXen, cfg)
	tasks := deployGroup(sys, group, row.Interfaces, cfg)
	sys.Run(cfg.Duration + simtime.Seconds(5))
	row.RTXenMisses = workload.MissSummary(tasks)
	return row
}

func newSys(stack core.Stack, cfg Figure3Config) *core.System {
	c := core.DefaultConfig(stack)
	c.PCPUs = cfg.PCPUs
	c.Seed = cfg.Seed
	if cfg.Costs != nil {
		c.Costs = *cfg.Costs
	}
	return core.NewSystem(c)
}

// deployGroup creates one VM per RTA (as in §4.2) and starts the workload:
// periodic rt-app tasks, or sporadic TCP-triggered tasks when
// cfg.Sporadic is set. ifaces configures the RT-Xen servers (nil = RTVirt
// cross-layer mode).
func deployGroup(sys *core.System, group RTAGroup, ifaces []csa.Interface, cfg Figure3Config) []*task.Task {
	var tasks []*task.Task
	kind := task.Periodic
	if cfg.Sporadic {
		kind = task.Sporadic
	}
	for i, p := range group.RTAs {
		name := fmt.Sprintf("vm%d", i)
		var g *guest.OS
		if ifaces != nil {
			iface := ifaces[i]
			g = mustGuest(sys.NewServerGuest(name,
				[]hv.Reservation{{Budget: iface.Budget, Period: iface.Period}}, 256))
		} else {
			g = mustGuest(sys.NewGuest(name, 1))
		}
		t := task.New(i, fmt.Sprintf("%s-rta%d", group.Name, i), kind, p)
		must(g.Register(t))
		tasks = append(tasks, t)
	}
	sys.Start()
	for _, t := range tasks {
		g := guestOf(sys, t)
		if cfg.Sporadic {
			sc := workload.NewClient(g, t,
				workload.Renewal{D: dist.Uniform{Lo: ms(100), Hi: simtime.Seconds(1)}})
			sc.Requests = cfg.Requests
			sc.Start(0)
		} else {
			g.StartPeriodic(t, 0)
		}
	}
	return tasks
}

// Render formats the Figure-3 rows like the paper's bar chart, in percent
// of one CPU.
func RenderFigure3(rows []Figure3Row) string {
	t := metrics.NewTable("Group", "RTA-Req %", "RT-Xen Claimed %", "RT-Xen Alloc %", "RTVirt %",
		"RT-Xen miss %", "RTVirt miss %")
	for _, r := range rows {
		t.AddRow(r.Group,
			fmt.Sprintf("%.1f", 100*r.RTAReq),
			fmt.Sprintf("%.1f", 100*r.RTXenClaimed),
			fmt.Sprintf("%.1f", 100*r.RTXenAllocated),
			fmt.Sprintf("%.1f", 100*r.RTVirtAllocated),
			fmt.Sprintf("%.3f", 100*r.RTXenMisses.Ratio()),
			fmt.Sprintf("%.3f", 100*r.RTVirtMisses.Ratio()))
	}
	var b strings.Builder
	b.WriteString("Figure 3 — CPU bandwidth per RTA group (percent of one CPU)\n")
	b.WriteString(t.String())
	return b.String()
}

// RenderTable2 formats the NH-Dec configuration table.
func RenderTable2(r Figure3Row) string {
	group := Table1Groups()[4] // NH-Dec
	t := metrics.NewTable("RTA (s,p)", "RT-Xen VM (Θ,Π)", "RT-Xen bw", "RTVirt VM bw")
	for i, p := range group.RTAs {
		t.AddRow(p.String(), r.Interfaces[i].String(),
			fmt.Sprintf("%.3f", r.Interfaces[i].Bandwidth()),
			fmt.Sprintf("%.3f", r.RTVirtRes[i]))
	}
	var b strings.Builder
	b.WriteString("Table 2 — NH-Dec VM configurations\n")
	b.WriteString(t.String())
	fmt.Fprintf(&b, "Totals: RTAs %.2f CPUs, RT-Xen %.2f CPUs, RTVirt %.2f CPUs\n",
		r.RTAReq, r.RTXenAllocated, r.RTVirtAllocated)
	return b.String()
}
