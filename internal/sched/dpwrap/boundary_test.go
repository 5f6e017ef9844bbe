package dpwrap

import (
	"fmt"
	"testing"

	"rtvirt/internal/clone"
	"rtvirt/internal/hv"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// refGlobalDeadline computes the next global deadline after t0 the way a
// separate pass over every admitted VCPU does: skip all but the real-time
// VCPUs with budget, take the earliest published slot after t0 and
// sporadic worst case, clamp into [MinSlice, MaxSlice]. It is the oracle
// for the deadline rebuild derives in its one pass over rtv.
func refGlobalDeadline(s *Scheduler, t0 simtime.Time) simtime.Time {
	d := simtime.Never
	for _, v := range s.vcpus {
		if !v.RT || v.Res.Budget <= 0 {
			continue
		}
		if slot := v.DeadlineSlot; slot > t0 && slot < d {
			d = slot
		}
		if f := v.SporadicFloor; f > 0 {
			if wc := t0.Add(f); wc < d {
				d = wc
			}
		}
	}
	lo, hi := t0.Add(s.cfg.MinSlice), t0.Add(MaxSlice)
	if d < lo {
		d = lo
	}
	if d > hi {
		d = hi
	}
	return d
}

// idleGuest is a guest driver with no work: the boundary bookkeeping under
// test is independent of what the VCPUs run.
type idleGuest struct{}

func (idleGuest) PickJob(*hv.VCPU, simtime.Time) *task.Job       { return nil }
func (idleGuest) JobCompleted(*hv.VCPU, *task.Job, simtime.Time) {}
func (g idleGuest) ForkDriver(*clone.Ctx) hv.GuestDriver         { return g }

// checkBoundary asserts the rebuild invariants: rtv is the filter of vcpus
// in admission order, the slice ends at the oracle's deadline for its
// start, and every idx slot outside the layout is -1.
func checkBoundary(t *testing.T, h *hv.Host, s *Scheduler, where string) {
	t.Helper()
	var want []*hv.VCPU
	for _, v := range s.vcpus {
		if v.RT && v.Res.Budget > 0 {
			want = append(want, v)
		}
	}
	if len(s.rtv) != len(want) {
		t.Fatalf("%s: rtv holds %d VCPUs, want %d", where, len(s.rtv), len(want))
	}
	for i := range want {
		if s.rtv[i] != want[i] {
			t.Fatalf("%s: rtv[%d] = %v, want %v", where, i, s.rtv[i], want[i])
		}
	}
	if got, exp := s.sliceEnd, refGlobalDeadline(s, s.sliceStart); got != exp {
		t.Fatalf("%s: slice [%v,%v) ends at %v, oracle says %v", where, s.sliceStart, got, got, exp)
	}
	for pi, ps := range s.pcpu {
		if len(ps.idx) < h.NumIDs() {
			t.Fatalf("%s: pcpu%d idx covers %d IDs, host has %d", where, pi, len(ps.idx), h.NumIDs())
		}
		inLayout := make(map[int]int, len(ps.entries))
		for i, e := range ps.entries {
			inLayout[e.v.ID] = i
		}
		for id, x := range ps.idx {
			i, ok := inLayout[id]
			switch {
			case ok && int(x) != i:
				t.Fatalf("%s: pcpu%d idx[%d] = %d, entry is at %d", where, pi, id, x, i)
			case !ok && x != -1:
				t.Fatalf("%s: pcpu%d idx[%d] = %d outside the layout, want -1", where, pi, id, x)
			}
		}
	}
}

// TestOnePassBoundaryDifferential drives random sequences of admissions,
// removals, reservation updates (budgets dropping to zero and coming
// back), INC_DEC_BW hypercalls forced into rollback, NoMigrate VCPUs and
// shared-memory slot writes through a DP-WRAP host, and checks every
// boundary against the two-pass oracle and the full-index invariant. A
// fork at the end must carry an rtv made of the forked VCPUs.
func TestOnePassBoundaryDifferential(t *testing.T) {
	const steps = 400
	for seed := uint64(1); seed <= 12; seed++ {
		rng := sim.NewRNG(seed)
		s := sim.New(seed)
		cfg := DefaultConfig()
		// Capacity 1.0 on two PCPUs: raising one VCPU to a full CPU while
		// any other holds budget is always rejected.
		cfg.RTCapacity = 0.5
		sched := New(cfg)
		h := hv.NewHost(s, 2, sched, hv.CostModel{})
		var vms []*hv.VM
		admit := func() {
			vm := h.NewVM(fmt.Sprintf("vm%d", len(vms)), idleGuest{})
			rt := rng.Intn(4) != 0
			res := hv.Reservation{Period: ms(10)}
			if rt && rng.Intn(3) != 0 {
				res.Budget = simtime.Micros(int64(100 + rng.Intn(1500)))
			}
			v, err := vm.AddVCPU(rt, res, 256)
			if err != nil {
				h.RemoveVM(vm)
				return
			}
			v.NoMigrate = rng.Intn(3) == 0
			vms = append(vms, vm)
		}
		rtVCPU := func() *hv.VCPU {
			var c []*hv.VCPU
			for _, v := range sched.vcpus {
				if v.RT {
					c = append(c, v)
				}
			}
			if len(c) == 0 {
				return nil
			}
			return c[rng.Intn(len(c))]
		}
		for i := 0; i < 6; i++ {
			admit()
		}
		h.Start()
		checkBoundary(t, h, sched, fmt.Sprintf("seed %d start", seed))
		for step := 0; step < steps; step++ {
			now := s.Now()
			switch op := rng.Intn(7); op {
			case 0:
				admit()
			case 1:
				if len(vms) > 0 {
					i := rng.Intn(len(vms))
					h.RemoveVM(vms[i])
					vms = append(vms[:i], vms[i+1:]...)
				}
			case 2:
				// Budget to zero and back, or a fresh budget.
				if v := rtVCPU(); v != nil {
					res := hv.Reservation{Period: ms(10)}
					if v.Res.Budget == 0 {
						res.Budget = simtime.Micros(int64(100 + rng.Intn(1500)))
					}
					_ = sched.HandleHypercall(hv.Hypercall{Flag: hv.IncBW, VCPU: v, Res: res}, now)
				}
			case 3:
				// INC_DEC_BW that must roll its decrease back.
				inc, dec := rtVCPU(), rtVCPU()
				if inc == nil || inc == dec || dec.Res.Budget < 2 {
					break
				}
				before := dec.Res
				err := sched.HandleHypercall(hv.Hypercall{
					Flag:   hv.IncDecBW,
					VCPU:   inc,
					Res:    hv.Reservation{Budget: inc.Res.Period, Period: inc.Res.Period},
					Dec:    dec,
					DecRes: hv.Reservation{Budget: before.Budget / 2, Period: before.Period},
				}, now)
				if err == nil {
					t.Fatalf("seed %d step %d: over-capacity INC_DEC_BW accepted", seed, step)
				}
				if dec.Res != before {
					t.Fatalf("seed %d step %d: decrease not rolled back: %v, want %v", seed, step, dec.Res, before)
				}
			case 4:
				if v := rtVCPU(); v != nil {
					h.WriteDeadlineSlot(v, now.Add(simtime.Micros(int64(rng.Intn(20000)))-ms(2)))
				}
			case 5:
				if v := rtVCPU(); v != nil {
					floor := simtime.Duration(0)
					if rng.Intn(2) == 0 {
						floor = simtime.Micros(int64(100 + rng.Intn(3000)))
					}
					h.WriteSporadicFloor(v, floor)
				}
			case 6:
				s.RunFor(simtime.Micros(int64(rng.Intn(3000))))
				checkBoundary(t, h, sched, fmt.Sprintf("seed %d step %d after run", seed, step))
				continue
			}
			sched.replanKick(s.Now())
			checkBoundary(t, h, sched, fmt.Sprintf("seed %d step %d", seed, step))
		}

		ctx := clone.New()
		ns := s.Fork(ctx)
		fsched := clone.Get(ctx, sched)
		if len(fsched.rtv) != len(sched.rtv) {
			t.Fatalf("seed %d: fork's rtv holds %d VCPUs, want %d", seed, len(fsched.rtv), len(sched.rtv))
		}
		for i, v := range sched.rtv {
			if fsched.rtv[i] != clone.Get(ctx, v) {
				t.Fatalf("seed %d: fork's rtv[%d] is not the forked %v", seed, i, v)
			}
		}
		ns.RunFor(simtime.Millis(20))
		checkBoundary(t, clone.Get(ctx, h), fsched, fmt.Sprintf("seed %d fork", seed))
	}
}
