// Package guest models the guest operating system inside a VM: the
// sched_setattr()-style system-call interface applications use to declare
// timeliness requirements, a partitioned-EDF process scheduler over the
// VM's VCPUs, guest-level admission control and task placement, VCPU
// parameter derivation, and — in cross-layer mode — the sched_rtvirt()
// hypercalls and shared-memory deadline publication of §3.2/§3.3.
package guest

import (
	"errors"
	"fmt"
	"math"

	"rtvirt/internal/eventq"
	"rtvirt/internal/hv"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
	"rtvirt/internal/trace"
)

// Config tunes a guest OS instance.
type Config struct {
	// CrossLayer enables the RTVirt paravirtual interface: reservation
	// hypercalls on task changes and deadline-slot publication. A
	// cross-layer guest also repacks tasks across its VCPUs when a request
	// does not fit due to fragmentation (§3.2); a static guest's VCPUs are
	// fixed offline, so it only tries first fit.
	CrossLayer bool
	// Slack is added to each VCPU's budget to absorb scheduling overhead
	// (500µs in the paper's evaluation). Only meaningful with CrossLayer.
	Slack simtime.Duration
	// MaxVCPUs bounds CPU hotplug; 0 disables hotplug.
	MaxVCPUs int
	// VCPUCapacity is the maximum total task bandwidth admitted per VCPU
	// (default 1.0 when zero).
	VCPUCapacity float64
	// PrioritySlack scales each VCPU's budget slack by (1 + highest task
	// priority) — §6's priority-proportional slack, giving important RTAs
	// a larger overhead margin.
	PrioritySlack bool
	// GEDF switches the process scheduler from RTVirt's partitioned EDF to
	// SCHED_DEADLINE's native global EDF: one VM-wide ready queue, jobs
	// migrate freely between VCPUs. The paper rejects gEDF because the
	// VCPUs' cross-layer parameters can no longer be derived from pinned
	// tasks (§3.2); it is implemented here for exactly that ablation —
	// under gEDF each VCPU's reservation is the VM total spread evenly.
	GEDF bool
}

// DefaultConfig returns the RTVirt guest configuration from §4.1.
func DefaultConfig() Config {
	return Config{
		CrossLayer:   true,
		Slack:        simtime.Micros(500),
		VCPUCapacity: 1.0,
	}
}

// Errors returned by the system-call interface.
var (
	ErrNoCapacity      = errors.New("guest: no VCPU with sufficient bandwidth")
	ErrHostRejected    = errors.New("guest: host admission control rejected request")
	ErrUnknownTask     = errors.New("guest: task not registered")
	ErrAlreadyRegister = errors.New("guest: task already registered")
)

// Typed kernel-event kinds dispatched to the guest's HandleSimEvent.
const (
	// evPeriodicTick releases the next job of a periodic task. Owner is
	// the task's guest-local owner ID (NOT task.ID, which is only unique
	// within one task set).
	evPeriodicTick uint16 = iota
	// evRelease releases one job of a task (ReleaseAt): Owner is the
	// task's owner ID and Arg the job's demand.
	evRelease
)

// OS is the guest operating system of one VM.
type OS struct {
	cfg       Config
	host      *hv.Host
	sim       *sim.Simulator
	vm        *hv.VM
	handlerID int32

	vcpus []*vcpuState
	tasks map[*task.Task]*taskState
	// order keeps registered tasks in registration order so Tasks() — and
	// everything downstream of it, such as Shutdown's unregister sequence —
	// is deterministic (map iteration is not).
	order []*taskState
	// byOwner resolves the Owner field of typed events back to the task:
	// owner IDs are dense and never reused, and a departed task's entry
	// is nil.
	byOwner []*taskState
	// free pools completed jobs for ReleaseJob; it grows to the peak live count.
	free []*task.Job
}

type vcpuState struct {
	v     *hv.VCPU
	ready *readyQueue
	tasks []*taskState
}

// bwSum recomputes the summed task bandwidth on the VCPU from the tasks'
// current parameters, avoiding incremental floating-point drift.
func (vs *vcpuState) bwSum() float64 {
	var s float64
	for _, ts := range vs.tasks {
		s += ts.t.Params().Bandwidth()
	}
	return s
}

type taskState struct {
	t     *task.Task
	vs    *vcpuState
	os    *OS
	owner int32
	// periodic release machinery
	releaseEv   eventq.Handle
	nextRelease simtime.Time
	// demand, when positive, is each job's actual demand in place of the
	// declared slice (SetDemand).
	demand simtime.Duration
}

// NewOS creates a VM named name on host with the given guest config, and
// nVCPUs initial virtual CPUs. RT VCPUs start with a zero reservation in
// cross-layer mode (reservations arrive via hypercall as tasks register);
// in static mode pass explicit reservations per VCPU with AddVCPU instead.
func NewOS(host *hv.Host, name string, cfg Config, nVCPUs int) (*OS, error) {
	if cfg.VCPUCapacity == 0 {
		cfg.VCPUCapacity = 1.0
	}
	g := &OS{cfg: cfg, host: host, sim: host.Sim,
		tasks: map[*task.Task]*taskState{}}
	g.handlerID = host.Sim.RegisterHandler(g)
	g.vm = host.NewVM(name, g)
	for i := 0; i < nVCPUs; i++ {
		if _, err := g.AddVCPU(hv.Reservation{Period: simtime.Millis(10)}, 256); err != nil {
			host.RemoveVM(g.vm) // don't leak a partially built VM
			return nil, err
		}
	}
	return g, nil
}

// VM returns the underlying hypervisor VM.
func (g *OS) VM() *hv.VM { return g.vm }

// Config returns the guest configuration.
func (g *OS) Config() Config { return g.cfg }

// NumVCPUs reports the current VCPU count.
func (g *OS) NumVCPUs() int { return len(g.vcpus) }

// AddVCPU hot-plugs a VCPU with an explicit initial reservation and weight.
func (g *OS) AddVCPU(res hv.Reservation, weight int) (*hv.VCPU, error) {
	v, err := g.vm.AddVCPU(true, res, weight)
	if err != nil {
		return nil, err
	}
	g.vcpus = append(g.vcpus, &vcpuState{v: v, ready: &readyQueue{}})
	return v, nil
}

// VCPUBandwidth reports the summed task bandwidth currently admitted on
// VCPU index i.
func (g *OS) VCPUBandwidth(i int) float64 { return g.vcpus[i].bwSum() }

// AllocatedBandwidth reports the VM's total host-level reservation in CPUs.
func (g *OS) AllocatedBandwidth() float64 {
	var total float64
	for _, vs := range g.vcpus {
		total += vs.v.Res.Bandwidth()
	}
	return total
}

// Tasks returns the registered tasks in registration order.
func (g *OS) Tasks() []*task.Task {
	out := make([]*task.Task, 0, len(g.order))
	for _, ts := range g.order {
		out = append(out, ts.t)
	}
	return out
}

// track records a freshly admitted task: assigns its owner ID (the stable
// handle typed kernel events use to reach it) and indexes it.
func (g *OS) track(ts *taskState) {
	ts.owner = int32(len(g.byOwner))
	ts.t.GuestSlot = ts.owner
	g.tasks[ts.t] = ts
	g.byOwner = append(g.byOwner, ts)
	g.order = append(g.order, ts)
}

func (g *OS) untrack(ts *taskState) {
	delete(g.tasks, ts.t)
	g.byOwner[ts.owner] = nil
	for i, x := range g.order {
		if x == ts {
			g.order = append(g.order[:i], g.order[i+1:]...)
			break
		}
	}
}

// TaskVCPU reports which VCPU index a task is pinned to, or -1.
func (g *OS) TaskVCPU(t *task.Task) int {
	ts, ok := g.tasks[t]
	if !ok || ts.vs == nil {
		return -1
	}
	return ts.vs.v.Index
}

// emitVerdict reports a guest-level admission decision onto the host's
// telemetry bus. Guest verdicts carry the task name (host-level ones do
// not), so the two layers are distinguishable in a trace; Arg is the
// requested slice.
func (g *OS) emitVerdict(t *task.Task, vs *vcpuState, slice simtime.Duration, ok bool) {
	if !g.host.Tracing() {
		return
	}
	kind := trace.Reject
	if ok {
		kind = trace.Admit
	}
	ev := trace.Event{At: g.sim.Now(), Kind: kind, PCPU: -1,
		VM: g.vm.Name, Task: t.Name, Arg: int64(slice)}
	if vs != nil {
		ev.VCPU = vs.v.Index
	}
	g.host.Emit(ev)
}

// ---- system-call interface (sched_setattr analogue) ----

// Register admits task t: guest-level admission picks a VCPU with enough
// bandwidth (first-fit, then reshuffle, then hotplug), and in cross-layer
// mode requests the VCPU's enlarged reservation from the host via
// sched_rtvirt(INC_BW) before pinning (§3.2 case 1).
func (g *OS) Register(t *task.Task) error {
	if _, dup := g.tasks[t]; dup {
		return ErrAlreadyRegister
	}
	if t.Kind == task.Background {
		// BGAs need no admission and consume no reserved bandwidth; they
		// queue behind RT jobs (deadline = Never) on the VCPU with the
		// fewest background tasks.
		ts := &taskState{t: t, os: g}
		g.track(ts)
		best := g.vcpus[0]
		bestN := 1 << 30
		for _, vs := range g.vcpus {
			n := 0
			for _, x := range vs.tasks {
				if x.t.Kind == task.Background {
					n++
				}
			}
			if n < bestN {
				best, bestN = vs, n
			}
		}
		g.pin(ts, best)
		return nil
	}
	if !t.Params().Valid() {
		return fmt.Errorf("guest: invalid params %v", t.Params())
	}
	ts := &taskState{t: t, os: g}
	vs, err := g.place(ts, t.Params().Bandwidth())
	if err != nil {
		g.emitVerdict(t, nil, t.Params().Slice, false)
		return err
	}
	g.track(ts)
	g.pin(ts, vs)
	g.emitVerdict(t, vs, t.Params().Slice, true)
	return nil
}

// RegisterOn admits task t pinned to a specific VCPU, used when an offline
// analysis (e.g. CSA for RT-Xen) has already decided placement.
func (g *OS) RegisterOn(t *task.Task, vcpu int) error {
	if _, dup := g.tasks[t]; dup {
		return ErrAlreadyRegister
	}
	vs := g.vcpus[vcpu]
	bw := t.Params().Bandwidth()
	if t.Kind != task.Background && vs.bwSum()+bw > g.cfg.VCPUCapacity+1e-9 {
		g.emitVerdict(t, vs, t.Params().Slice, false)
		return ErrNoCapacity
	}
	ts := &taskState{t: t, os: g}
	if g.cfg.CrossLayer {
		res := g.deriveRes(vs, ts, nil)
		if err := g.host.SchedRTVirt(hv.Hypercall{Flag: hv.IncBW, VCPU: vs.v, Res: res}); err != nil {
			g.emitVerdict(t, vs, t.Params().Slice, false)
			return fmt.Errorf("%w: %v", ErrHostRejected, err)
		}
	}
	g.track(ts)
	g.pin(ts, vs)
	g.emitVerdict(t, vs, t.Params().Slice, true)
	return nil
}

// SetAttr changes a task's timeliness requirement (§3.2 cases 2 and 3):
// bandwidth increases re-run admission (possibly moving the task with an
// INC_DEC_BW hypercall); decreases always succeed and release bandwidth.
func (g *OS) SetAttr(t *task.Task, p task.Params) error {
	ts, ok := g.tasks[t]
	if !ok {
		return ErrUnknownTask
	}
	if !p.Valid() {
		return fmt.Errorf("guest: invalid params %v", p)
	}
	oldP := t.Params()
	oldBW, newBW := oldP.Bandwidth(), p.Bandwidth()
	vs := ts.vs

	fitsHere := vs.bwSum()-oldBW+newBW <= g.cfg.VCPUCapacity+1e-9
	if fitsHere {
		t.SetParams(p)
		if g.cfg.CrossLayer {
			res := g.deriveRes(vs, nil, nil)
			flag := hv.DecBW
			if newBW > oldBW {
				flag = hv.IncBW
			}
			if err := g.host.SchedRTVirt(hv.Hypercall{Flag: flag, VCPU: vs.v, Res: res}); err != nil {
				t.SetParams(oldP)
				g.emitVerdict(t, vs, p.Slice, false)
				return fmt.Errorf("%w: %v", ErrHostRejected, err)
			}
		}
		g.publish(vs)
		g.emitVerdict(t, vs, p.Slice, true)
		return nil
	}

	// Must move to another VCPU: find one with room for the new bandwidth.
	dst := g.findFit(newBW, vs)
	if dst == nil {
		if g.cfg.CrossLayer {
			// Give up only after a repack attempt fails.
			if err := g.reshuffleFor(ts, p); err == nil {
				g.emitVerdict(t, ts.vs, p.Slice, true)
				return nil
			}
		}
		g.emitVerdict(t, vs, p.Slice, false)
		return ErrNoCapacity
	}
	t.SetParams(p)
	if g.cfg.CrossLayer {
		// INC_DEC_BW: grow dst, shrink the task's old VCPU, atomically.
		incRes := g.deriveRes(dst, ts, nil)
		decRes := g.deriveRes(vs, nil, ts)
		hc := hv.Hypercall{Flag: hv.IncDecBW, VCPU: dst.v, Res: incRes, Dec: vs.v, DecRes: decRes}
		if err := g.host.SchedRTVirt(hc); err != nil {
			t.SetParams(oldP)
			g.emitVerdict(t, vs, p.Slice, false)
			return fmt.Errorf("%w: %v", ErrHostRejected, err)
		}
	}
	g.unpin(ts)
	g.pin(ts, dst)
	g.emitVerdict(t, dst, p.Slice, true)
	return nil
}

// Unregister removes a task (§3.2 case 4): pending jobs are abandoned and
// the freed bandwidth is returned with a DEC_BW hypercall.
func (g *OS) Unregister(t *task.Task) error {
	ts, ok := g.tasks[t]
	if !ok {
		return ErrUnknownTask
	}
	g.sim.Cancel(ts.releaseEv)
	ts.releaseEv = eventq.Handle{}
	g.untrack(ts)
	if ts.vs == nil {
		return nil
	}
	vs := ts.vs
	now := g.sim.Now()
	// Abandon this task's queued jobs.
	for _, j := range vs.ready.Jobs() {
		if j.Task == t {
			vs.ready.Remove(j)
			j.Abandon(now)
		}
	}
	g.unpin(ts)
	if g.cfg.CrossLayer {
		res := g.deriveRes(vs, nil, nil)
		// DEC_BW cannot fail; ignore the impossible error path.
		_ = g.host.SchedRTVirt(hv.Hypercall{Flag: hv.DecBW, VCPU: vs.v, Res: res})
	}
	g.publish(vs)
	// The kernel may be running one of the abandoned jobs; force a re-pick.
	g.host.VCPURecheck(vs.v, now)
	return nil
}

// Shutdown unregisters every task (abandoning queued jobs) and removes
// the VM from the host — the teardown half of a live migration or a VM
// destroy.
func (g *OS) Shutdown() error {
	for _, t := range g.Tasks() {
		if err := g.Unregister(t); err != nil {
			return err
		}
	}
	g.host.RemoveVM(g.vm)
	// The VCPUs are gone from the host; stop reporting their (static)
	// reservations as allocated bandwidth.
	g.vcpus = nil
	return nil
}

// ---- job release ----

// SetDemand makes every job of t that is released without an explicit
// demand run for d instead of its declared slice (0 restores the slice).
// It models tasks whose actual demand differs from what they declare.
func (g *OS) SetDemand(t *task.Task, d simtime.Duration) {
	ts, ok := g.tasks[t]
	if !ok {
		panic("guest: SetDemand on unregistered task")
	}
	ts.demand = d
}

// ReleaseAt schedules one release of t at instant at with the given demand
// (as ReleaseJob). The release is a guest event, so it survives a Fork; a
// task that has left the guest by then releases nothing.
func (g *OS) ReleaseAt(t *task.Task, at simtime.Time, demand simtime.Duration) eventq.Handle {
	ts, ok := g.tasks[t]
	if !ok {
		panic("guest: ReleaseAt on unregistered task")
	}
	return g.sim.PostAt(at, sim.Payload{Handler: g.handlerID, Kind: evRelease, Owner: ts.owner, Arg: int64(demand)})
}

// ReleaseJob activates task t now with the given demand (0 = use the
// demand set by SetDemand, else the declared slice) and returns the job.
// The guest owns the record: the pointer is valid until the job's
// completion has been handled, after which JobCompleted zeroes it for
// reuse (see task.Job).
func (g *OS) ReleaseJob(t *task.Task, demand simtime.Duration) *task.Job {
	var ts *taskState
	if o := uint(t.GuestSlot); o < uint(len(g.byOwner)) {
		ts = g.byOwner[o]
	}
	if ts == nil || ts.t != t {
		// Not registered here, or registered with another guest since.
		if ts = g.tasks[t]; ts == nil {
			panic("guest: ReleaseJob on unregistered task")
		}
	}
	if demand <= 0 {
		if ts.demand > 0 {
			demand = ts.demand
		} else {
			demand = t.Params().Slice
		}
	}
	vs := ts.vs
	if vs == nil {
		panic("guest: ReleaseJob on unpinned task")
	}
	var j *task.Job
	if n := len(g.free); n > 0 {
		j, g.free = g.free[n-1], g.free[:n-1]
	} else {
		j = new(task.Job)
	}
	now := g.sim.Now()
	t.ReleaseInto(j, now, demand)
	prevHead := vs.ready.Head()
	vs.ready.Push(j)
	g.publish(vs)
	if g.cfg.GEDF {
		// Global EDF: any idle VCPU may pick the job up; running VCPUs
		// re-evaluate in case the new deadline preempts theirs.
		woke := false
		for _, other := range g.vcpus {
			if !other.v.Runnable() {
				g.host.VCPUWake(other.v, now)
				woke = true
				break
			}
		}
		if !woke {
			for _, other := range g.vcpus {
				if cur := other.v.CurrentJob(); cur != nil && j.Deadline < cur.Deadline {
					g.host.VCPURecheck(other.v, now)
					break
				}
			}
		}
		return j
	}
	if !vs.v.Runnable() {
		g.host.VCPUWake(vs.v, now)
	} else if vs.ready.Head() != prevHead {
		// The new job preempts under EDF; tell the kernel if v is running.
		g.host.VCPURecheck(vs.v, now)
	}
	return j
}

// StartPeriodic begins periodic releases of t at the given start instant;
// each release runs for the task's SetDemand override or its slice.
func (g *OS) StartPeriodic(t *task.Task, start simtime.Time) {
	ts, ok := g.tasks[t]
	if !ok {
		panic("guest: StartPeriodic on unregistered task")
	}
	if ts.releaseEv.Active() {
		panic("guest: StartPeriodic called twice")
	}
	ts.nextRelease = start
	ts.releaseEv = g.sim.PostAt(start,
		sim.Payload{Handler: g.handlerID, Kind: evPeriodicTick, Owner: ts.owner})
	if ts.vs != nil {
		g.publish(ts.vs)
	}
}

// HandleSimEvent implements sim.Handler.
func (g *OS) HandleSimEvent(now simtime.Time, ev sim.Payload) {
	switch ev.Kind {
	case evPeriodicTick:
		if ts := g.byOwner[ev.Owner]; ts != nil {
			g.periodicTick(ts, now)
		}
	case evRelease:
		if ts := g.byOwner[ev.Owner]; ts != nil {
			g.ReleaseJob(ts.t, simtime.Duration(ev.Arg))
		}
	default:
		panic(fmt.Sprintf("guest: unknown event kind %d", ev.Kind))
	}
}

func (g *OS) periodicTick(ts *taskState, now simtime.Time) {
	ts.releaseEv = eventq.Handle{}
	// Arm the next tick before releasing so the deadline publication that
	// happens inside ReleaseJob sees a fresh next-release time.
	ts.nextRelease = now.Add(ts.t.Params().Period)
	ts.releaseEv = g.sim.PostAt(ts.nextRelease,
		sim.Payload{Handler: g.handlerID, Kind: evPeriodicTick, Owner: ts.owner})
	g.ReleaseJob(ts.t, 0)
}

// ---- hv.GuestDriver ----

// PickJob implements hv.GuestDriver: partitioned EDF per VCPU, or — in
// gEDF mode — the globally earliest-deadline job not already executing on
// another VCPU.
func (g *OS) PickJob(v *hv.VCPU, now simtime.Time) *task.Job {
	if !g.cfg.GEDF {
		return g.vcpus[v.Index].ready.Head()
	}
	var best *task.Job
	for _, vs := range g.vcpus {
		for _, s := range vs.ready.items {
			if (best == nil || s.deadline < best.Deadline) && !g.runningElsewhere(s.job, v) {
				best = s.job
			}
		}
	}
	return best
}

// runningElsewhere reports whether j is currently executing on a VCPU
// other than v (a job cannot run on two VCPUs at once).
func (g *OS) runningElsewhere(j *task.Job, v *hv.VCPU) bool {
	for _, vs := range g.vcpus {
		if vs.v != v && vs.v.CurrentJob() == j {
			return true
		}
	}
	return false
}

// JobCompleted implements hv.GuestDriver. It ends the kernel's completion
// path, so the job's record goes back to the pool, zeroed.
func (g *OS) JobCompleted(v *hv.VCPU, j *task.Job, now simtime.Time) {
	vs := g.vcpus[v.Index]
	if g.cfg.GEDF {
		// The job may live on any queue under gEDF.
		for _, vs = range g.vcpus {
			if vs.ready.holds(j) {
				break
			}
		}
	}
	if !vs.ready.Remove(j) {
		panic("guest: completed job was not queued")
	}
	g.publish(vs)
	*j = task.Job{}
	g.free = append(g.free, j)
}

// ---- internals ----

func (g *OS) pin(ts *taskState, vs *vcpuState) {
	ts.vs = vs
	ts.t.VCPU = vs.v.Index
	vs.tasks = append(vs.tasks, ts)
	g.publish(vs)
}

func (g *OS) unpin(ts *taskState) {
	vs := ts.vs
	for i, x := range vs.tasks {
		if x == ts {
			vs.tasks = append(vs.tasks[:i], vs.tasks[i+1:]...)
			break
		}
	}
	ts.vs = nil
	ts.t.VCPU = -1
	g.publish(vs)
}

// findFit returns the first VCPU (other than skip) with room for bw.
func (g *OS) findFit(bw float64, skip *vcpuState) *vcpuState {
	for _, vs := range g.vcpus {
		if vs == skip {
			continue
		}
		if vs.bwSum()+bw <= g.cfg.VCPUCapacity+1e-9 {
			return vs
		}
	}
	return nil
}

// place finds (or creates) a VCPU for a new task and performs the
// cross-layer admission handshake: first fit, then a defragmenting
// reshuffle, then CPU hotplug (§3.2).
func (g *OS) place(ts *taskState, bw float64) (*vcpuState, error) {
	vs := g.findFit(bw, nil)
	if vs == nil && g.cfg.CrossLayer {
		if targets, ok := g.planRepack(ts, bw); ok {
			if err := g.applyRepack(targets); err != nil {
				return nil, err
			}
			vs = g.findFit(bw, nil)
		}
	}
	if vs == nil && g.cfg.MaxVCPUs > len(g.vcpus) {
		// Hotplug a fresh VCPU (§3.2: "RTVirt uses CPU hotplug to add
		// additional VCPUs to the VM online").
		if _, err := g.AddVCPU(hv.Reservation{Period: simtime.Millis(10)}, 256); err == nil {
			vs = g.vcpus[len(g.vcpus)-1]
		}
	}
	if vs == nil {
		return nil, ErrNoCapacity
	}
	if g.cfg.CrossLayer {
		res := g.deriveRes(vs, ts, nil)
		if err := g.host.SchedRTVirt(hv.Hypercall{Flag: hv.IncBW, VCPU: vs.v, Res: res}); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrHostRejected, err)
		}
	}
	return vs, nil
}

// deriveRes computes vs's reservation by the §3.3 rule (Reservation)
// over its RTAs, with add counted when it is pinned elsewhere and drop
// left out; either may be nil.
func (g *OS) deriveRes(vs *vcpuState, add, drop *taskState) hv.Reservation {
	var sum float64
	minP := simtime.Infinite
	prio := 0
	count := func(t *task.Task) {
		if t.Kind == task.Background {
			// BGAs hold no reservation and their zero period must not
			// drag the VCPU period (and hence the budget) to zero.
			return
		}
		p := t.Params()
		sum += p.Bandwidth()
		minP = min(minP, p.Period)
		prio = max(prio, t.Priority)
	}
	for _, ts := range vs.tasks {
		if ts != drop {
			count(ts.t)
		}
	}
	if add != nil && add.vs != vs {
		count(add.t)
	}
	return g.cfg.Reservation(sum, minP, prio)
}

// Reservation is the §3.3 VCPU sizing rule, shared with the offline
// analysis: for RTAs of summed bandwidth sumBW, smallest period minP and
// highest priority prio, the budget is ⌈sumBW·minP⌉ plus the slack —
// scaled by (1 + prio) under PrioritySlack (§6) — capped at the period
// minP. With no RTAs the VCPU holds a zero budget over 10ms.
func (c Config) Reservation(sumBW float64, minP simtime.Duration, prio int) hv.Reservation {
	if sumBW <= 0 || minP == simtime.Infinite {
		return hv.Reservation{Budget: 0, Period: simtime.Millis(10)}
	}
	slack := c.Slack
	if c.PrioritySlack && prio > 0 {
		slack = simtime.Duration(int64(slack) * int64(1+prio))
	}
	// Round the budget up so truncation never starves the tasks of the
	// final nanoseconds they need at exact utilization.
	budget := min(simtime.Duration(math.Ceil(sumBW*float64(minP)))+slack, minP)
	return hv.Reservation{Budget: budget, Period: minP}
}

// planRepack computes a first-fit-decreasing packing of every registered
// RT task — plus, optionally, a not-yet-pinned extra task of bandwidth
// extraBW — onto the current VCPUs. It returns the target VCPU index per
// existing task and whether the packing succeeded. §3.2: "the guest can
// reshuffle the placement of RTAs if there is enough bandwidth on the VM
// but it is fragmented across VCPUs."
func (g *OS) planRepack(extra *taskState, extraBW float64) (map[*taskState]int, bool) {
	type packItem struct {
		ts *taskState
		bw float64
	}
	var items []packItem
	if extra != nil {
		items = append(items, packItem{extra, extraBW})
	}
	for _, vs := range g.vcpus {
		for _, x := range vs.tasks {
			if x == extra {
				continue // already listed with its prospective bandwidth
			}
			items = append(items, packItem{x, x.t.Params().Bandwidth()})
		}
	}
	// First-fit decreasing: sort by bandwidth, largest first.
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && items[j].bw > items[j-1].bw; j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
	fill := make([]float64, len(g.vcpus))
	target := make(map[*taskState]int)
	for _, it := range items {
		placed := false
		for vi := range g.vcpus {
			if fill[vi]+it.bw <= g.cfg.VCPUCapacity+1e-9 {
				fill[vi] += it.bw
				target[it.ts] = vi
				placed = true
				break
			}
		}
		if !placed {
			return nil, false
		}
	}
	return target, true
}

// applyRepack moves existing tasks to their planned VCPUs (queued jobs
// follow), then synchronises the host reservations — shrinking VCPUs
// first so the grow hypercalls never see transient over-capacity.
func (g *OS) applyRepack(target map[*taskState]int) error {
	for _, vs := range g.vcpus {
		for _, x := range append([]*taskState(nil), vs.tasks...) {
			if ti, ok := target[x]; ok && ti != x.vs.v.Index {
				from := x.vs
				g.unpin(x)
				g.pin(x, g.vcpus[ti])
				g.migrateJobs(x, from, g.vcpus[ti])
			}
		}
	}
	if !g.cfg.CrossLayer {
		return nil
	}
	var grows []*vcpuState
	for _, vs := range g.vcpus {
		res := g.deriveRes(vs, nil, nil)
		if res.Bandwidth() <= vs.v.Res.Bandwidth() {
			// DEC_BW cannot be rejected.
			_ = g.host.SchedRTVirt(hv.Hypercall{Flag: hv.DecBW, VCPU: vs.v, Res: res})
		} else {
			grows = append(grows, vs)
		}
	}
	for _, vs := range grows {
		res := g.deriveRes(vs, nil, nil)
		if err := g.host.SchedRTVirt(hv.Hypercall{Flag: hv.IncBW, VCPU: vs.v, Res: res}); err != nil {
			return fmt.Errorf("%w: %v", ErrHostRejected, err)
		}
	}
	return nil
}

// reshuffleFor handles a SetAttr that fits nowhere as-is: repack with the
// task at its new parameters, then apply the new parameters and placement.
func (g *OS) reshuffleFor(ts *taskState, p task.Params) error {
	target, ok := g.planRepack(ts, p.Bandwidth())
	if !ok {
		return ErrNoCapacity
	}
	oldP := ts.t.Params()
	ts.t.SetParams(p)
	if err := g.applyRepack(target); err != nil {
		ts.t.SetParams(oldP)
		return err
	}
	return nil
}

func (g *OS) migrateJobs(ts *taskState, from, to *vcpuState) {
	for _, j := range from.ready.Jobs() {
		if j.Task == ts.t {
			from.ready.Remove(j)
			to.ready.Push(j)
		}
	}
	now := g.sim.Now()
	if len(to.ready.items) > 0 && !to.v.Runnable() {
		g.host.VCPUWake(to.v, now)
	}
	g.host.VCPURecheck(from.v, now)
	g.host.VCPURecheck(to.v, now)
	g.publish(from)
	g.publish(to)
}

// publish recomputes and writes the VCPU's shared-memory words: the next
// earliest deadline across its RTAs and the sporadic worst-case floor.
func (g *OS) publish(vs *vcpuState) {
	if !g.cfg.CrossLayer {
		return
	}
	now := g.sim.Now()
	slot := simtime.Never
	floor := simtime.Duration(0)
	add := func(d simtime.Time) {
		if d > now && d < slot {
			slot = d
		}
	}
	// Pending jobs' deadlines (overdue ones are no longer boundaries).
	for _, it := range vs.ready.items {
		add(it.job.Deadline)
	}
	for _, ts := range vs.tasks {
		switch ts.t.Kind {
		case task.Periodic:
			// The next release is the next scheduling boundary: for
			// back-to-back periodic tasks it coincides with the current
			// job's deadline, and after an early completion it marks the
			// point where the allocation demand resumes — a slice must not
			// span it, or the task's window can land before its job even
			// arrives.
			if ts.releaseEv.Active() {
				add(ts.nextRelease)
			}
		case task.Sporadic:
			p := ts.t.Params().Period
			if floor == 0 || p < floor {
				floor = p
			}
		}
	}
	if vs.v.DeadlineSlot != slot {
		g.host.WriteDeadlineSlot(vs.v, slot)
	}
	if vs.v.SporadicFloor != floor {
		g.host.WriteSporadicFloor(vs.v, floor)
	}
}
