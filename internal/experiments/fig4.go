package experiments

import (
	"fmt"
	"strings"

	"rtvirt/internal/clone"
	"rtvirt/internal/core"
	"rtvirt/internal/guest"
	"rtvirt/internal/metrics"
	"rtvirt/internal/runner"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
	"rtvirt/internal/workload"
)

// Figure4Config tunes the dynamic video-streaming experiment (§4.3).
type Figure4Config struct {
	Seed     uint64
	Duration simtime.Duration // 10 minutes in the paper
	VMs      int              // 4
	VCPUs    int              // 4 per VM
	PCPUs    int              // 15
}

// fig4SampleEvery is the allocation time-series resolution.
const fig4SampleEvery = 10 * simtime.Second

// DefaultFigure4Config mirrors §4.3.
func DefaultFigure4Config() Figure4Config {
	return Figure4Config{
		Seed:     1,
		Duration: 10 * simtime.Minute,
		VMs:      4,
		VCPUs:    4,
		PCPUs:    15,
	}
}

// AllocationSample is one point of the Figure-4 time series.
type AllocationSample struct {
	At simtime.Time
	// CPUPercent is the VM's reserved bandwidth in percent of one CPU.
	CPUPercent float64
}

// Figure4Result is the outcome of the dynamic experiment.
type Figure4Result struct {
	// PerVM holds each VM's allocation time series (Figure 4a).
	PerVM map[string][]AllocationSample
	// RTAsRun counts the streaming RTAs that executed (54 in the paper's
	// run; RNG-dependent here).
	RTAsRun int
	// Rejected counts admission-control rejections.
	Rejected int
	// Misses summarises deadline outcomes across all RTAs.
	Misses metrics.MissSummary
	// TasksWithMisses / WorstMissPct reproduce the §4.3 claims ("out of
	// the 54 RTAs ... only five had deadline misses, worst 0.136%").
	TasksWithMisses int
	WorstMissPct    float64
	// AvgAllocated and PeakAllocated contrast the dynamic allocation with
	// a static peak-provisioned approach, in CPUs.
	AvgAllocated  float64
	PeakAllocated float64
}

// Event kinds of the Figure-4 driver (dispatched on (kind, owner)).
const (
	// evF4SegEnd unregisters a finished segment's RTA. Owner is the
	// segment id.
	evF4SegEnd uint16 = iota
	// evF4SegNext schedules the next random segment on a VCPU. Owner packs
	// the (guest index, vcpu) slot as gi<<8 | vcpu.
	evF4SegNext
	// evF4Sample takes one allocation time-series sample.
	evF4Sample
)

// fig4seg is one pending segment: the guest slot it occupies and the task
// to unregister when it ends.
type fig4seg struct {
	gi int
	t  *task.Task
}

// fig4run drives the dynamic experiment as a typed event handler, so a
// mid-run Figure-4 world is plain forkable state.
type fig4run struct {
	cfg      Figure4Config
	sim      *sim.Simulator
	rng      *sim.RNG
	id       int32
	guests   []*guest.OS
	res      *Figure4Result
	all      []*task.Task
	segs     map[int32]*fig4seg
	nextSeg  int32
	nextID   int
	allocSum float64
	allocN   int
}

// newFig4 builds the §4.3 system, starts the per-VCPU segment chains and
// the allocation sampler, and returns the driver plus its system.
func newFig4(cfg Figure4Config) (*fig4run, *core.System) {
	sysCfg := core.DefaultConfig(core.RTVirt)
	sysCfg.PCPUs = cfg.PCPUs
	sysCfg.Seed = cfg.Seed
	sys := core.NewSystem(sysCfg)

	r := &fig4run{
		cfg:  cfg,
		sim:  sys.Sim,
		res:  &Figure4Result{PerVM: map[string][]AllocationSample{}},
		segs: map[int32]*fig4seg{},
	}
	for i := 0; i < cfg.VMs; i++ {
		g := mustGuest(sys.NewGuest(fmt.Sprintf("vm%d", i+1), cfg.VCPUs))
		r.guests = append(r.guests, g)
	}
	sys.Start()
	r.rng = sys.Sim.RNG().Split()
	r.id = sys.Sim.RegisterHandler(r)
	for gi := range r.guests {
		for v := 0; v < cfg.VCPUs; v++ {
			r.schedule(gi, v, 0)
		}
	}
	r.sim.PostAt(0, sim.Payload{Handler: r.id, Kind: evF4Sample})
	return r, sys
}

// schedule begins one random segment on (guest gi, vcpu): a streaming RTA
// with a random Table-3 profile, or an idle interval holding a 10% reserve.
// Durations are uniform in [10s, 6min]; the chain covers the run.
func (r *fig4run) schedule(gi, vcpu int, at simtime.Time) {
	if at >= simtime.Time(r.cfg.Duration) {
		return
	}
	segment := simtime.Duration(r.rng.Int63n(int64(6*simtime.Minute-simtime.Seconds(10)))) + simtime.Seconds(10)
	end := simtime.Min(at.Add(segment), simtime.Time(r.cfg.Duration))
	idle := r.rng.Intn(5) == 0 // a fifth of the segments are idle gaps
	var t *task.Task
	if idle {
		// Idle interval: the VCPU keeps a 10% reservation (§4.3).
		t = task.New(r.nextID, fmt.Sprintf("reserve-%d", r.nextID), task.Periodic, pp(1, 10))
	} else {
		prof := workload.VideoProfiles[r.rng.Intn(len(workload.VideoProfiles))]
		t = task.New(r.nextID, fmt.Sprintf("vlc%dfps-%d", prof.FPS, r.nextID), task.Periodic, prof.Params)
	}
	r.nextID++
	g := r.guests[gi]
	if err := g.RegisterOn(t, vcpu); err != nil {
		r.res.Rejected++
	} else {
		if !idle {
			r.res.RTAsRun++
			r.all = append(r.all, t)
			g.StartPeriodic(t, at)
		}
		segID := r.nextSeg
		r.nextSeg++
		r.segs[segID] = &fig4seg{gi: gi, t: t}
		r.sim.PostAt(end, sim.Payload{Handler: r.id, Kind: evF4SegEnd, Owner: segID})
	}
	r.sim.PostAt(end, sim.Payload{Handler: r.id, Kind: evF4SegNext, Owner: int32(gi<<8 | vcpu)})
}

// sample records one point of the allocation time series.
func (r *fig4run) sample(now simtime.Time) {
	var total float64
	for _, g := range r.guests {
		bw := g.AllocatedBandwidth()
		total += bw
		r.res.PerVM[g.VM().Name] = append(r.res.PerVM[g.VM().Name],
			AllocationSample{At: now, CPUPercent: 100 * bw})
	}
	r.allocSum += total
	r.allocN++
	if total > r.res.PeakAllocated {
		r.res.PeakAllocated = total
	}
	if now < simtime.Time(r.cfg.Duration) {
		r.sim.PostAt(now.Add(fig4SampleEvery), sim.Payload{Handler: r.id, Kind: evF4Sample})
	}
}

// HandleSimEvent implements sim.Handler.
func (r *fig4run) HandleSimEvent(now simtime.Time, ev sim.Payload) {
	switch ev.Kind {
	case evF4SegEnd:
		seg := r.segs[ev.Owner]
		delete(r.segs, ev.Owner)
		must(r.guests[seg.gi].Unregister(seg.t))
	case evF4SegNext:
		r.schedule(int(ev.Owner>>8), int(ev.Owner&0xff), now)
	case evF4Sample:
		r.sample(now)
	default:
		panic(fmt.Sprintf("experiments: unknown fig4 event kind %d", ev.Kind))
	}
}

// ForkHandler implements sim.Handler: the driver's pending segments, RNG
// stream and partial results all follow the fork.
func (r *fig4run) ForkHandler(ctx *clone.Ctx) sim.Handler {
	if n, ok := ctx.Lookup(r); ok {
		return n.(*fig4run)
	}
	nr := &fig4run{
		cfg:      r.cfg,
		sim:      clone.Get(ctx, r.sim),
		rng:      r.rng.Clone(),
		id:       r.id,
		segs:     make(map[int32]*fig4seg, len(r.segs)),
		nextSeg:  r.nextSeg,
		nextID:   r.nextID,
		allocSum: r.allocSum,
		allocN:   r.allocN,
	}
	ctx.Put(r, nr)
	nr.guests = make([]*guest.OS, len(r.guests))
	for i, g := range r.guests {
		nr.guests[i] = g.ForkDriver(ctx).(*guest.OS)
	}
	nr.all = make([]*task.Task, len(r.all))
	for i, t := range r.all {
		nr.all[i] = task.Clone(ctx, t)
	}
	for id, seg := range r.segs {
		nr.segs[id] = &fig4seg{gi: seg.gi, t: task.Clone(ctx, seg.t)}
	}
	res := *r.res
	res.PerVM = make(map[string][]AllocationSample, len(r.res.PerVM))
	for name, samples := range r.res.PerVM {
		res.PerVM[name] = append([]AllocationSample(nil), samples...)
	}
	nr.res = &res
	return nr
}

// finish aggregates the driver's state into the experiment result.
func (r *fig4run) finish() Figure4Result {
	res := *r.res
	res.Misses = workload.MissSummary(r.all)
	res.TasksWithMisses = res.Misses.TasksWithMisses
	res.WorstMissPct = 100 * res.Misses.WorstRatio
	if r.allocN > 0 {
		res.AvgAllocated = r.allocSum / float64(r.allocN)
	}
	return res
}

// Figure4 runs the §4.3 experiment: VMs host video-streaming RTAs that
// arrive and leave dynamically; each RTA has random Table-3 parameters,
// random start and duration; idle gaps hold a 10% reservation. RTVirt's
// hypercall path re-negotiates VM bandwidth on every transition.
func Figure4(cfg Figure4Config) Figure4Result {
	r, sys := newFig4(cfg)
	sys.Run(cfg.Duration + simtime.Seconds(2))
	return r.finish()
}

// SurgeRow is one arm of the Figure-4 load-surge counterfactual.
type SurgeRow struct {
	// Extra is the number of streaming RTAs injected at the fork point.
	Extra    int
	Admitted int
	Rejected int
	// Misses summarises the injected RTAs' deadline outcomes in the tail.
	Misses metrics.MissSummary
	// Allocated is the total reserved bandwidth at the end, in CPUs.
	Allocated float64
}

// Figure4Surge asks a what-if question of the §4.3 dynamic system: after
// `warm` of simulated churn, what happens if k extra streaming RTAs all
// arrive at once? The warmed world is simulated once; each surge level
// forks it (runner.MapForked) and injects its arrivals into the fork, so
// the arms share the pre-surge history bit-for-bit and differ only in the
// surge itself.
func Figure4Surge(cfg Figure4Config, surges []int, warm, tail simtime.Duration) []SurgeRow {
	r, sys := newFig4(cfg)
	sys.Run(warm)
	type world struct {
		sys *core.System
		r   *fig4run
	}
	return runner.MapForked(0, surges,
		func(int, int) world {
			nsys, ctx := sys.Fork()
			return world{sys: nsys, r: clone.Get(ctx, r)}
		},
		func(_ int, k int, w world) SurgeRow {
			row := SurgeRow{Extra: k}
			now := w.sys.Now()
			var injected []*task.Task
			for i := 0; i < k; i++ {
				prof := workload.VideoProfiles[i%len(workload.VideoProfiles)]
				t := task.New(100000+i, fmt.Sprintf("surge%d", i), task.Periodic, prof.Params)
				g := w.r.guests[i%len(w.r.guests)]
				if err := g.Register(t); err != nil {
					row.Rejected++
					continue
				}
				row.Admitted++
				injected = append(injected, t)
				g.StartPeriodic(t, now)
			}
			w.sys.Run(tail)
			row.Misses = workload.MissSummary(injected)
			for _, g := range w.r.guests {
				row.Allocated += g.AllocatedBandwidth()
			}
			return row
		})
}

// RenderFigure4Surge formats the surge sweep.
func RenderFigure4Surge(rows []SurgeRow) string {
	t := metrics.NewTable("surge RTAs", "admitted", "rejected", "miss %", "alloc CPUs")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.Extra), r.Admitted, r.Rejected,
			fmt.Sprintf("%.3f", 100*r.Misses.Ratio()), fmt.Sprintf("%.2f", r.Allocated))
	}
	var b strings.Builder
	b.WriteString("Figure 4 surge — forked what-if: k RTAs arrive at once into the warmed world\n")
	b.WriteString(t.String())
	return b.String()
}

// Render formats the Figure-4 summary.
func (r Figure4Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 4 — dynamic video-streaming RTAs under RTVirt\n")
	fmt.Fprintf(&b, "RTAs run: %d (rejected by admission: %d)\n", r.RTAsRun, r.Rejected)
	fmt.Fprintf(&b, "Deadlines: %s\n", r.Misses)
	fmt.Fprintf(&b, "Tasks with ≥1 miss: %d; worst per-task miss: %.3f%%\n",
		r.TasksWithMisses, r.WorstMissPct)
	fmt.Fprintf(&b, "Average allocation: %.2f CPUs (static peak provisioning: %.2f CPUs, saving %.1f%%)\n",
		r.AvgAllocated, r.PeakAllocated, 100*(1-r.AvgAllocated/r.PeakAllocated))
	t := metrics.NewTable("t (s)", "VM1 %", "VM2 %", "VM3 %", "VM4 %")
	n := len(r.PerVM["vm1"])
	for i := 0; i < n; i += 6 { // print every minute
		row := []any{fmt.Sprintf("%.0f", r.PerVM["vm1"][i].At.Seconds())}
		for v := 1; v <= 4; v++ {
			s := r.PerVM[fmt.Sprintf("vm%d", v)]
			if i < len(s) {
				row = append(row, fmt.Sprintf("%.0f", s[i].CPUPercent))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	b.WriteString(t.String())
	return b.String()
}
