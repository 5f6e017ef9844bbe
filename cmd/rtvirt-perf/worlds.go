package main

import (
	"fmt"
	"strings"

	"rtvirt/internal/cluster"
	"rtvirt/internal/core"
	"rtvirt/internal/csa"
	"rtvirt/internal/dist"
	"rtvirt/internal/guest"
	"rtvirt/internal/hv"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
	"rtvirt/internal/trace"
	"rtvirt/internal/workload"
)

// The builders in this file are frozen copies of the program's experiment
// set-ups: Figure 3, Table 6 and Figure 5a of internal/experiments, and the
// BENCH_7 rack cluster of cmd/rtvirt-bench. They use only the program's
// constructors, so editing the experiment code cannot change what the
// benchmark measures; the parity tests pin them to the experiments' rows.

// world is one built and started simulation of a workload.
type world interface {
	// run advances the world to its horizon.
	run()
	// horizon is the simulated time run covers.
	horizon() simtime.Duration
	// clock is the world's simulated time now.
	clock() simtime.Time
	// digest appends the canonical text of the world's simulated outcomes.
	digest(b *strings.Builder)
	// addMeters adds the program's own counters to m.
	addMeters(m *meters)
}

// meters are the program's own counters, summed over a workload's worlds.
// They are simulated quantities: equal on every run of the same seed.
type meters struct {
	Events        uint64 `json:"events"`
	Windows       uint64 `json:"windows"`
	Requests      uint64 `json:"requests"`
	ScheduleCalls uint64 `json:"schedule_calls"`
	CtxSwitches   uint64 `json:"ctx_switches"`
	Migrations    uint64 `json:"migrations"`
	Hypercalls    uint64 `json:"hypercalls"`
	GuestSwitches uint64 `json:"guest_switches"`
	// OverheadNS is Table 6's scheduler overhead on the simulated clock and
	// CapacityNS its base: each host's run span times its PCPUs.
	OverheadNS int64 `json:"overhead_ns"`
	CapacityNS int64 `json:"capacity_ns"`
}

func (m *meters) addHost(h *hv.Host) {
	o := h.Overhead
	m.ScheduleCalls += o.ScheduleCalls
	m.CtxSwitches += o.CtxSwitches
	m.Migrations += o.Migrations
	m.Hypercalls += o.Hypercalls
	m.GuestSwitches += o.GuestSwitches
	m.OverheadNS += int64(o.Total())
	m.CapacityNS += int64(h.Sim.Now().Sub(h.StartTime())) * int64(h.NumPCPUs())
}

// must panics on a set-up error: the worlds are frozen, so a failure to
// build one is a regression in the program, and the run counts as failed.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("rtvirt-perf: world set-up failed: %v", err))
	}
}

func ms(n int64) simtime.Duration { return simtime.Millis(n) }

func pp(s, p int64) task.Params { return task.Params{Slice: ms(s), Period: ms(p)} }

// rtaGroup is one row of the paper's Table 1 or Table 5.
type rtaGroup struct {
	name string
	rtas []task.Params
}

func (g rtaGroup) bandwidth() float64 {
	var sum float64
	for _, p := range g.rtas {
		sum += p.Bandwidth()
	}
	return sum
}

// table1Groups are the periodic RTA groups of Figure 3.
func table1Groups() []rtaGroup {
	return []rtaGroup{
		{"H-Equiv", []task.Params{pp(13, 20), pp(25, 40), pp(49, 80), pp(19, 100)}},
		{"H-Dec", []task.Params{pp(7, 10), pp(13, 20), pp(18, 40), pp(13, 100)}},
		{"H-Inc", []task.Params{pp(5, 10), pp(13, 20), pp(31, 40), pp(10, 100)}},
		{"NH-Equiv", []task.Params{pp(13, 20), pp(26, 40), pp(39, 60), pp(13, 100)}},
		{"NH-Dec", []task.Params{pp(23, 30), pp(13, 20), pp(5, 10), pp(10, 100)}},
		{"NH-Inc", []task.Params{pp(11, 21), pp(26, 43), pp(40, 60), pp(13, 100)}},
	}
}

// table5RTAs are the single-RTA groups of the Table 6 scalability runs.
func table5RTAs() []task.Params {
	return []task.Params{pp(6, 75), pp(7, 92), pp(46, 188), pp(12, 102), pp(19, 139),
		pp(13, 124), pp(36, 260), pp(21, 159), pp(9, 103), pp(62, 208)}
}

// hostWorld is one single-host simulation.
type hostWorld struct {
	name  string
	sys   *core.System
	span  simtime.Duration
	tasks []*task.Task
	// mcs are the memcached VMs whose latency recorders are digested.
	mcs []*workload.Memcached
	// events is Table 6's count-only trace sink (nil: the bus stays off).
	events *trace.Counts

	// Set-up outcomes, digested and read by the parity tests.
	ifaces        []csa.Interface
	allocatedCPUs float64
	claimedCPUs   int
	guestBW       []float64
	admitted      int
	requested     int
	vms, vcpus    int
}

func (w *hostWorld) run()                      { w.sys.Run(w.span) }
func (w *hostWorld) horizon() simtime.Duration { return w.span }
func (w *hostWorld) clock() simtime.Time       { return w.sys.Now() }

func (w *hostWorld) addMeters(m *meters) {
	m.Events += w.sys.Sim.EventsFired()
	m.addHost(w.sys.Host)
}

func (w *hostWorld) digest(b *strings.Builder) {
	fmt.Fprintf(b, "world %s clock=%d events=%d alloc=%.9f\n",
		w.name, int64(w.sys.Now()), w.sys.Sim.EventsFired(), w.sys.AllocatedBandwidth())
	o := w.sys.Host.Overhead
	fmt.Fprintf(b, "overhead sched=%d/%d ctx=%d/%d mig=%d/%d hcall=%d/%d gsw=%d/%d shm=%d\n",
		o.ScheduleCalls, int64(o.ScheduleTime), o.CtxSwitches, int64(o.CtxSwitchTime),
		o.Migrations, int64(o.MigrationTime), o.Hypercalls, int64(o.HypercallTime),
		o.GuestSwitches, int64(o.GuestSwitchTime), o.ShmWrites)
	fmt.Fprintf(b, "setup admitted=%d/%d vms=%d vcpus=%d csa=%.9f claimed=%d ifaces=%v guestbw=%.9f\n",
		w.admitted, w.requested, w.vms, w.vcpus, w.allocatedCPUs, w.claimedCPUs, w.ifaces, w.guestBW)
	for _, t := range w.tasks {
		st := t.Stats()
		fmt.Fprintf(b, "task %s released=%d completed=%d abandoned=%d missed=%d resp=%d maxresp=%d\n",
			t.Name, st.Released, st.Completed, st.Abandoned, st.Missed, int64(st.TotalResp), int64(st.MaxResp))
	}
	for _, mc := range w.mcs {
		l := &mc.Latency
		fmt.Fprintf(b, "latency %s count=%d p50=%d p99=%d p99.9=%d\n", mc.Task.Name, l.Count(),
			int64(l.Percentile(50)), int64(l.Percentile(99)), int64(l.Percentile(99.9)))
	}
	if w.events != nil {
		fmt.Fprintf(b, "trace %s\n", w.events)
	}
}

// started records the set-up outcomes every host world shares, once the
// host is started and its workload released.
func (w *hostWorld) started() *hostWorld {
	for _, g := range w.sys.Guests() {
		w.guestBW = append(w.guestBW, g.AllocatedBandwidth())
	}
	return w
}

func newSystem(stack core.Stack, pcpus int, seed uint64) *core.System {
	cfg := core.DefaultConfig(stack)
	cfg.PCPUs = pcpus
	cfg.Seed = seed
	return core.NewSystem(cfg)
}

// figure3Worlds builds Figure 3: every Table-1 group under RT-Xen (offline
// CSA interfaces) and RTVirt, each run for d plus the 5 s drain.
func figure3Worlds(seed uint64, d simtime.Duration) []func() world {
	var out []func() world
	for _, g := range table1Groups() {
		out = append(out,
			func() world { return figure3Arm(g, seed, d, true) },
			func() world { return figure3Arm(g, seed, d, false) })
	}
	return out
}

func figure3Arm(g rtaGroup, seed uint64, d simtime.Duration, rtxen bool) *hostWorld {
	w := &hostWorld{name: "fig3/" + g.name + "/rtvirt", span: d + simtime.Seconds(5)}
	stack := core.RTVirt
	if rtxen {
		w.name = "fig3/" + g.name + "/rt-xen"
		stack = core.RTXen
		// CARTS works at the resolution of its inputs: whole milliseconds.
		var vms []csa.VMConfig
		for i, p := range g.rtas {
			set := []task.Params{p}
			iface, ok := csa.BestInterfaceQ(set, csa.DefaultCandidates(set), ms(1))
			if !ok {
				panic(fmt.Sprintf("rtvirt-perf: no CSA interface for %v", p))
			}
			w.ifaces = append(w.ifaces, iface)
			vms = append(vms, csa.VMConfig{Name: fmt.Sprintf("vm%d", i),
				VCPUs: []csa.Interface{iface}, TaskBW: p.Bandwidth()})
		}
		w.allocatedCPUs = csa.AllocatedCPUs(vms)
		if claimed, ok := csa.ClaimedCPUs(vms, 64); ok {
			w.claimedCPUs = claimed
		}
	}
	w.sys = newSystem(stack, 15, seed)
	guests := make([]*guest.OS, len(g.rtas))
	for i, p := range g.rtas {
		name := fmt.Sprintf("vm%d", i)
		var err error
		if rtxen {
			iface := w.ifaces[i]
			guests[i], err = w.sys.NewServerGuest(name,
				[]hv.Reservation{{Budget: iface.Budget, Period: iface.Period}}, 256)
		} else {
			guests[i], err = w.sys.NewGuest(name, 1)
		}
		must(err)
		t := task.New(i, fmt.Sprintf("%s-rta%d", g.name, i), task.Periodic, p)
		must(guests[i].Register(t))
		w.tasks = append(w.tasks, t)
	}
	w.sys.Start()
	for i, t := range w.tasks {
		guests[i].StartPeriodic(t, 0)
	}
	return w.started()
}

// table6Worlds builds Table 6: the multi-RTA and then the single-RTA
// scenario, each under RTVirt and RT-Xen, run for d with the count-only
// trace sink attached.
func table6Worlds(seed uint64, d simtime.Duration) []func() world {
	var out []func() world
	for _, multi := range []bool{true, false} {
		out = append(out,
			func() world { return table6RTVirt(multi, seed, d) },
			func() world { return table6RTXen(multi, seed, d) })
	}
	return out
}

func table6Name(multi bool, framework string) string {
	if multi {
		return "table6/multi/" + framework
	}
	return "table6/single/" + framework
}

// table6World builds the host and attaches the trace sink.
func table6World(multi bool, stack core.Stack, seed uint64, d simtime.Duration) *hostWorld {
	w := &hostWorld{name: table6Name(multi, stack.String()), span: d, events: new(trace.Counts)}
	w.sys = newSystem(stack, 15, seed)
	w.sys.Host.TraceTo(w.events)
	return w
}

// launch records the VM shape, starts the host and releases every
// admitted task on its guest.
func (w *hostWorld) launch(owners []*guest.OS) *hostWorld {
	w.vms = len(w.sys.Guests())
	for _, g := range w.sys.Guests() {
		w.vcpus += g.NumVCPUs()
	}
	w.sys.Start()
	for i, t := range w.tasks {
		owners[i].StartPeriodic(t, 0)
	}
	return w.started()
}

// table6RTVirt deploys the scenario on RTVirt: tasks register online and
// guests hotplug VCPUs as needed.
func table6RTVirt(multi bool, seed uint64, d simtime.Duration) *hostWorld {
	w := table6World(multi, core.RTVirt, seed, d)
	var owners []*guest.OS
	id := 0
	add := func(g *guest.OS, p task.Params, name string) {
		w.requested++
		t := task.New(id, name, task.Periodic, p)
		id++
		if g.Register(t) != nil {
			return
		}
		w.admitted++
		w.tasks = append(w.tasks, t)
		owners = append(owners, g)
	}
	for gi, p := range table5RTAs() {
		if multi {
			g, err := w.sys.NewGuestOpts(fmt.Sprintf("vm%d", gi+1), core.GuestOpts{VCPUs: 1, MaxVCPUs: 6})
			must(err)
			for k := 0; k < 10; k++ {
				add(g, p, fmt.Sprintf("g%d-rta%d", gi+1, k))
			}
			continue
		}
		for k := 0; k < 10; k++ {
			g, err := w.sys.NewGuest(fmt.Sprintf("vm%d-%d", gi+1, k), 1)
			must(err)
			add(g, p, fmt.Sprintf("g%d-rta%d", gi+1, k))
		}
	}
	return w.launch(owners)
}

// table6RTXen deploys the scenario on RT-Xen: interfaces come from offline
// CSA, and admission stops once the claimed CPUs exceed the host.
func table6RTXen(multi bool, seed uint64, d simtime.Duration) *hostWorld {
	w := table6World(multi, core.RTXen, seed, d)
	rtas := table5RTAs()
	ifaces := make([]csa.Interface, len(rtas))
	for i, p := range rtas {
		set := []task.Params{p}
		iface, ok := csa.BestInterfaceQ(set, csa.DefaultCandidates(set), ms(1))
		if !ok {
			panic("rtvirt-perf: no CSA interface for a Table 5 group")
		}
		ifaces[i] = iface
	}
	var servers []csa.Interface
	var owners []*guest.OS
	admit := func(cand []csa.Interface) bool {
		all := append(append([]csa.Interface(nil), servers...), cand...)
		return csa.PartitionedProcs(all) <= 15
	}
	id := 0
	for gi, p := range rtas {
		if !multi {
			for k := 0; k < 10; k++ {
				w.requested++
				if !admit([]csa.Interface{ifaces[gi]}) {
					continue
				}
				g, err := w.sys.NewServerGuest(fmt.Sprintf("vm%d-%d", gi+1, k),
					[]hv.Reservation{{Budget: ifaces[gi].Budget, Period: ifaces[gi].Period}}, 256)
				if err != nil {
					continue
				}
				t := task.New(id, fmt.Sprintf("g%d-rta%d", gi+1, k), task.Periodic, p)
				id++
				if g.RegisterOn(t, 0) != nil {
					continue
				}
				servers = append(servers, ifaces[gi])
				w.admitted++
				w.tasks = append(w.tasks, t)
				owners = append(owners, g)
			}
			continue
		}
		// Pack the VM's 10 RTAs onto the fewest VCPUs, first fit at the
		// interface bandwidth.
		perVCPU := max(int(1.0/ifaces[gi].Bandwidth()), 1)
		nVCPUs := (10 + perVCPU - 1) / perVCPU
		var vcpuIfaces []csa.Interface
		for v := 0; v < nVCPUs; v++ {
			set := make([]task.Params, min(perVCPU, 10-v*perVCPU))
			for k := range set {
				set[k] = p
			}
			iface, ok := csa.BestInterfaceQ(set, csa.DefaultCandidates(set), ms(1))
			if !ok {
				panic("rtvirt-perf: no per-VCPU CSA interface")
			}
			vcpuIfaces = append(vcpuIfaces, iface)
		}
		w.requested += 10
		if !admit(vcpuIfaces) {
			continue
		}
		servers = append(servers, vcpuIfaces...)
		var rsvs []hv.Reservation
		for _, ifc := range vcpuIfaces {
			rsvs = append(rsvs, hv.Reservation{Budget: ifc.Budget, Period: ifc.Period})
		}
		g, err := w.sys.NewServerGuest(fmt.Sprintf("vm%d", gi+1), rsvs, 256)
		if err != nil {
			continue
		}
		vcpu, onVCPU := 0, 0
		for k := 0; k < 10; k++ {
			t := task.New(id, fmt.Sprintf("g%d-rta%d", gi+1, k), task.Periodic, p)
			id++
			if onVCPU == perVCPU {
				vcpu++
				onVCPU = 0
			}
			if g.RegisterOn(t, vcpu) != nil {
				continue
			}
			onVCPU++
			w.admitted++
			w.tasks = append(w.tasks, t)
			owners = append(owners, g)
		}
	}
	return w.launch(owners)
}

// fig5Arms are Figure 5a's four configurations in the paper's order.
var fig5Arms = []string{"Credit", "RT-Xen A", "RT-Xen B", "RTVirt"}

// figure5aWorlds builds Figure 5a: one memcached VM at 100 req/s and 19 CPU
// hogs on 2 PCPUs, under each arm, run for d.
func figure5aWorlds(seed uint64, d simtime.Duration) []func() world {
	var out []func() world
	for _, arm := range fig5Arms {
		out = append(out, func() world { return figure5aArm(arm, seed, d) })
	}
	return out
}

func figure5aArm(arm string, seed uint64, d simtime.Duration) *hostWorld {
	w := &hostWorld{name: "fig5a/" + arm, span: d}
	// Each framework's scheduler path lengths, calibrated to Table 4.
	costs := hv.DefaultCosts()
	stack := core.RTVirt
	switch arm {
	case "Credit":
		stack = core.Credit
		costs.ScheduleBase = hv.ConstCost(simtime.Micros(30))
		costs.SetContextSwitch(hv.ConstCost(simtime.Micros(30)))
	case "RT-Xen A", "RT-Xen B":
		stack = core.RTXen
		costs.ScheduleBase = hv.ConstCost(simtime.Micros(3))
		costs.SetContextSwitch(hv.ConstCost(simtime.Micros(4)))
	}
	cfg := core.DefaultConfig(stack)
	cfg.PCPUs = 2
	cfg.Seed = seed
	cfg.Costs = costs
	cfg.Credit.Timeslice = ms(1)
	cfg.Credit.Ratelimit = simtime.Micros(500)
	w.sys = core.NewSystem(cfg)

	var g *guest.OS
	var err error
	switch arm {
	case "Credit":
		// The memcached VM's weight gives it 26% of the two CPUs.
		g, err = w.sys.NewWeightedGuest("mc0", 1, 727)
	case "RT-Xen A":
		g, err = w.sys.NewServerGuest("mc0", []hv.Reservation{{Budget: simtime.Micros(66), Period: simtime.Micros(283)}}, 256)
	case "RT-Xen B":
		g, err = w.sys.NewServerGuest("mc0", []hv.Reservation{{Budget: simtime.Micros(33), Period: simtime.Micros(177)}}, 256)
	default:
		zero := simtime.Duration(0)
		g, err = w.sys.NewGuestOpts("mc0", core.GuestOpts{VCPUs: 1, Slack: &zero})
	}
	must(err)
	mc, err := workload.NewMemcached(g, 1000, workload.DefaultMemcachedConfig())
	must(err)
	w.mcs = []*workload.Memcached{mc}
	w.tasks = append(w.tasks, mc.Task)
	var hogs []*workload.CPUHog
	for i := 0; i < 19; i++ {
		hg, err := w.sys.NewWeightedGuest(fmt.Sprintf("bg%d", i), 1, 256)
		must(err)
		hog, err := workload.NewCPUHog(hg, 2000+i, fmt.Sprintf("hog%d", i))
		must(err)
		hogs = append(hogs, hog)
		w.tasks = append(w.tasks, hog.Task)
	}
	w.sys.Start()
	mc.Start(0)
	for _, h := range hogs {
		h.Start(0)
	}
	return w.started()
}

// clusterWorld is the sharded rack cluster.
type clusterWorld struct {
	c       *cluster.Sharded
	clients []*cluster.RemoteClient
	span    simtime.Duration
	groups  int
}

func (w *clusterWorld) run() {
	w.c.Run(w.span, w.groups)
	w.c.Finish()
}

func (w *clusterWorld) horizon() simtime.Duration { return w.span }
func (w *clusterWorld) clock() simtime.Time       { return w.c.Set.Now() }
func (w *clusterWorld) digest(b *strings.Builder) { b.WriteString(w.c.DigestString()) }

func (w *clusterWorld) addMeters(m *meters) {
	m.Events += w.c.Set.EventsFired()
	m.Windows += w.c.Set.Windows()
	for _, cl := range w.clients {
		m.Requests += uint64(cl.Sent())
	}
	for _, h := range w.c.Hosts {
		m.addHost(h.Sys.Host)
	}
}

// rackSize groups hosts into racks; a client's network delay to a cache
// depends only on the rack distance.
const rackSize = 8

func rackDelay(src, dst int) simtime.Duration {
	switch d := src/rackSize - dst/rackSize; {
	case d == 0:
		return simtime.Micros(120)
	case d == 1 || d == -1:
		return simtime.Micros(180)
	default:
		return simtime.Micros(260)
	}
}

// newClusterWorld builds the rack cluster: hosts × 4 PCPUs, two cache VMs
// per host, each fed by remote clients one and two hosts over at the
// rack-distance delay, and eight planned migrations through the first
// hosts. Start is called; groups only sets the executor count of run.
func newClusterWorld(seed uint64, hosts int, span simtime.Duration, groups int) *clusterWorld {
	cfg := cluster.DefaultShardedConfig()
	cfg.Hosts = hosts
	cfg.PCPUs = 4
	cfg.Seed = seed
	cfg.LinkDelay = rackDelay
	w := &clusterWorld{c: cluster.NewSharded(cfg), span: span, groups: groups}
	for h := 0; h < hosts; h++ {
		for v := 0; v < 2; v++ {
			spec := cluster.VMSpec{
				Name:  fmt.Sprintf("cache%d-%d", h, v),
				VCPUs: 2,
				Tasks: []cluster.TaskSpec{
					{Name: "memc", Kind: task.Sporadic,
						Params: task.Params{Slice: simtime.Micros(60), Period: simtime.Micros(200)}},
					{Name: "rt", Kind: task.Periodic,
						Params: task.Params{Slice: simtime.Micros(300), Period: ms(5)},
						Phase:  simtime.Micros(int64(37 * (h + v)))},
					{Name: "bg", Kind: task.Background},
				},
			}
			d, err := w.c.Deploy(h, spec)
			must(err)
			for _, src := range []int{(h + 1) % hosts, (h + 2) % hosts} {
				cl, err := w.c.AddRemoteClient(src, d, 0, rackDelay(src, h),
					dist.Uniform{Lo: simtime.Micros(150), Hi: simtime.Micros(500)},
					dist.Uniform{Lo: simtime.Micros(20), Hi: simtime.Micros(80)}, 0)
				must(err)
				w.clients = append(w.clients, cl)
			}
		}
	}
	for k := 0; k < min(8, hosts-1); k++ {
		d, _ := w.c.Lookup(fmt.Sprintf("cache%d-0", k))
		must(w.c.PlanMigration(simtime.Time(0).Add(ms(int64(100*(k+1)))), d, (k+1)%hosts))
	}
	w.c.Start()
	return w
}
