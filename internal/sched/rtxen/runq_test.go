package rtxen

import (
	"fmt"
	"sort"
	"testing"

	"rtvirt/internal/hv"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// refPick is the published algorithm written out by brute force: sort the
// queued servers by (deadline, ID) and scan for the first one with budget
// that is runnable and not dispatched on another PCPU. The rank is its
// 1-based position; with no eligible server it is the queue length.
func refPick(srv []serverState, hot []hv.VCPUHot, queued []bool, p int32) (int32, int) {
	var q []int32
	for id, in := range queued {
		if in {
			q = append(q, int32(id))
		}
	}
	sort.Slice(q, func(i, j int) bool {
		a, b := q[i], q[j]
		if srv[a].deadline != srv[b].deadline {
			return srv[a].deadline < srv[b].deadline
		}
		return a < b
	})
	for i, id := range q {
		hs := hot[id]
		if srv[id].budget > 0 && hs.Runnable && (hs.PCPU < 0 || hs.PCPU == p) {
			return id, i + 1
		}
	}
	return -1, len(q)
}

// TestRunqMatchesSortedScan applies random Push/Remove/Fix sequences, with
// deadlines drawn from a small range so many tie, and random eligibility
// against the brute-force reference: the pick and its rank must agree, and
// every stored position must match the slice.
func TestRunqMatchesSortedScan(t *testing.T) {
	const n, pcpus, steps = 12, 3, 3000
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewRNG(seed)
		srv := make([]serverState, n)
		hot := make([]hv.VCPUHot, n)
		for i := range srv {
			srv[i].pos = -1
			hot[i].PCPU = -1
		}
		var r runq
		queued := make([]bool, n)
		count := 0
		for step := 0; step < steps; step++ {
			id := int32(rng.Intn(n))
			deadline := simtime.Time(rng.Intn(6))
			switch {
			case !queued[id]:
				srv[id].deadline = deadline
				r.Push(srv, id)
				queued[id] = true
				count++
			case rng.Intn(3) == 0:
				r.Remove(srv, id)
				queued[id] = false
				count--
			default:
				srv[id].deadline = deadline
				r.Fix(srv, id)
			}

			e := rng.Intn(n)
			srv[e].budget = simtime.Duration(rng.Intn(2))
			hot[e].Runnable = rng.Intn(4) != 0
			hot[e].PCPU = int32(rng.Intn(pcpus+1)) - 1

			if len(r.v) != count {
				t.Fatalf("seed %d step %d: queue holds %d servers, want %d", seed, step, len(r.v), count)
			}
			for i, x := range r.v {
				if int(srv[x].pos) != i {
					t.Fatalf("seed %d step %d: server %d at slot %d records pos %d", seed, step, x, i, srv[x].pos)
				}
			}
			for x, in := range queued {
				if !in && srv[x].pos != -1 {
					t.Fatalf("seed %d step %d: removed server %d records pos %d", seed, step, x, srv[x].pos)
				}
			}
			p := int32(rng.Intn(pcpus))
			gotID, gotRank := r.pickEDF(srv, hot, p)
			wantID, wantRank := refPick(srv, hot, queued, p)
			if gotID != wantID || gotRank != wantRank {
				t.Fatalf("seed %d step %d pcpu %d: pick (%d, rank %d), want (%d, rank %d)",
					seed, step, p, gotID, gotRank, wantID, wantRank)
			}
		}
	}
}

// BenchmarkSchedule times one RT-Xen decision on a host shaped like Table
// 6's single-RTA world: 97 one-VCPU server VMs with 1ms budgets and the
// Table 5 groups' 3–11ms CSA periods on 15 PCPUs, each serving one
// periodic task. The world first runs two simulated seconds, so the queue
// holds a mix of depleted, idle and dispatched servers; the benchmark then
// calls Schedule on each PCPU in turn at that instant. Same-instant calls
// charge no budget, so the state does not drift. rank/op is the modeled
// scan length, Decision.Work.
func BenchmarkSchedule(b *testing.B) {
	groups := []struct {
		slice, period, srvPeriod int64
		vms                      int
	}{
		{6, 75, 10, 10}, {7, 92, 11, 10}, {46, 188, 4, 10}, {12, 102, 7, 10}, {19, 139, 7, 10},
		{13, 124, 8, 10}, {36, 260, 7, 10}, {21, 159, 7, 10}, {9, 103, 10, 10}, {62, 208, 3, 7},
	}
	s := sim.New(1)
	sched := New(DefaultConfig())
	h := hv.NewHost(s, 15, sched, hv.CostModel{})
	id := 0
	for gi, g := range groups {
		for k := 0; k < g.vms; k++ {
			vm := newServerVM(b, h, fmt.Sprintf("vm%d-%d", gi+1, k), res(1, g.srvPeriod))
			tk := task.New(id, fmt.Sprintf("g%d-rta%d", gi+1, k), task.Periodic, pp(g.slice, g.period))
			id++
			if err := vm.RegisterOn(tk, 0); err != nil {
				b.Fatal(err)
			}
			vm.StartPeriodic(tk, 0)
		}
	}
	h.Start()
	s.RunFor(simtime.Seconds(2))

	pcpus := h.PCPUs()
	now := s.Now()
	work := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work += sched.Schedule(pcpus[i%len(pcpus)], now).Work
	}
	b.ReportMetric(float64(work)/float64(b.N), "rank/op")
}
