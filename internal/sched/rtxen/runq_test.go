package rtxen

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"rtvirt/internal/hv"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// refOrder is the queue the published algorithm keeps, written out by
// brute force: the queued servers sorted by (deadline, ID).
func refOrder(srv []serverState, queued []bool) []int32 {
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
	return q
}

// refPick scans refOrder for the first server with budget that is runnable
// and not dispatched on another PCPU. The rank is its 1-based position;
// with no eligible server it is the queue length.
func refPick(srv []serverState, hot []hv.VCPUHot, queued []bool, p int32) (int32, int) {
	q := refOrder(srv, queued)
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
// against the brute-force reference: the queue must hold refOrder, and the
// pick and its rank must agree. The 100-server case also moves the head
// to the tail, as a replenishment does, and the tail to the head, each
// time tying or just passing the deadline at the far end, so Fix shifts
// nearly the whole queue among equal deadlines.
func TestRunqMatchesSortedScan(t *testing.T) {
	for _, tc := range []struct {
		name               string
		n, pcpus, steps    int
		deadlines, endMove int // deadline range; 1 in endMove steps moves an end
	}{
		{"12-servers", 12, 3, 3000, 6, 0},
		{"100-servers-tied", 100, 15, 4000, 3, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 20; seed++ {
				rng := sim.NewRNG(seed)
				srv := make([]serverState, tc.n)
				hot := make([]hv.VCPUHot, tc.n)
				for i := range hot {
					hot[i].PCPU = -1
				}
				var r runq
				queued := make([]bool, tc.n)
				for step := 0; step < tc.steps; step++ {
					id := int32(rng.Intn(tc.n))
					deadline := simtime.Time(rng.Intn(tc.deadlines))
					switch {
					case tc.endMove > 0 && len(r.v) > 1 && rng.Intn(tc.endMove) == 0:
						head, tail := r.v[0], r.v[len(r.v)-1]
						if rng.Intn(2) == 0 {
							srv[head].deadline = srv[tail].deadline + simtime.Time(rng.Intn(2))
							r.Fix(srv, head)
						} else {
							srv[tail].deadline = srv[head].deadline - simtime.Time(rng.Intn(2))
							r.Fix(srv, tail)
						}
					case !queued[id]:
						srv[id].deadline = deadline
						r.Push(srv, id)
						queued[id] = true
					case rng.Intn(3) == 0:
						r.Remove(id)
						queued[id] = false
					default:
						srv[id].deadline = deadline
						r.Fix(srv, id)
					}

					e := rng.Intn(tc.n)
					srv[e].budget = simtime.Duration(rng.Intn(2))
					hot[e].Runnable = rng.Intn(4) != 0
					hot[e].PCPU = int32(rng.Intn(tc.pcpus+1)) - 1

					if want := refOrder(srv, queued); !slices.Equal(r.v, want) {
						t.Fatalf("seed %d step %d: queue %v, want %v", seed, step, r.v, want)
					}
					p := int32(rng.Intn(tc.pcpus))
					gotID, gotRank := r.pickEDF(srv, hot, p)
					wantID, wantRank := refPick(srv, hot, queued, p)
					if gotID != wantID || gotRank != wantRank {
						t.Fatalf("seed %d step %d pcpu %d: pick (%d, rank %d), want (%d, rank %d)",
							seed, step, p, gotID, gotRank, wantID, wantRank)
					}
				}
			}
		})
	}
}

// table6Host builds a host shaped like Table 6's single-RTA world: 97
// one-VCPU server VMs with 1ms budgets and the Table 5 groups' 3–11ms CSA
// periods on 15 PCPUs, each serving one periodic task. The host is started
// at time 0 and has not run.
func table6Host(tb testing.TB) (*sim.Simulator, *hv.Host, *Scheduler) {
	tb.Helper()
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
			vm := newServerVM(tb, h, fmt.Sprintf("vm%d-%d", gi+1, k), res(1, g.srvPeriod))
			tk := task.New(id, fmt.Sprintf("g%d-rta%d", gi+1, k), task.Periodic, pp(g.slice, g.period))
			id++
			if err := vm.RegisterOn(tk, 0); err != nil {
				tb.Fatal(err)
			}
			vm.StartPeriodic(tk, 0)
		}
	}
	h.Start()
	return s, h, sched
}

// TestTable6PicksMatchReference runs the Table 6 host for two simulated
// seconds in 1ms steps and, at every step, asks pickEDF for each PCPU's
// pick: it must equal the brute-force refPick over the active servers in
// ID and rank, so every replenishment's Fix left the queue in order.
func TestTable6PicksMatchReference(t *testing.T) {
	s, h, sched := table6Host(t)
	pcpus := h.NumPCPUs()
	for step := 1; step <= 2000; step++ {
		s.RunFor(simtime.Millis(1))
		queued := make([]bool, len(sched.srv))
		for id := range sched.srv {
			queued[id] = sched.srv[id].active
		}
		for p := int32(0); p < int32(pcpus); p++ {
			gotID, gotRank := sched.runq.pickEDF(sched.srv, h.Hot(), p)
			wantID, wantRank := refPick(sched.srv, h.Hot(), queued, p)
			if gotID != wantID || gotRank != wantRank {
				t.Fatalf("step %d pcpu %d: pick (%d, rank %d), want (%d, rank %d)",
					step, p, gotID, gotRank, wantID, wantRank)
			}
		}
	}
}

// BenchmarkSchedule times one RT-Xen decision on table6Host. The world
// first runs two simulated seconds, so the queue holds a mix of depleted,
// idle and dispatched servers; the benchmark then calls Schedule on each
// PCPU in turn at that instant. Same-instant calls charge no budget, so
// the state does not drift. rank/op is the modeled scan length,
// Decision.Work.
func BenchmarkSchedule(b *testing.B) {
	s, h, sched := table6Host(b)
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

// BenchmarkRunTable6Single advances table6Host by 10ms of simulated time
// per op and reports ns per simulated event. It exists because
// BenchmarkSchedule repeats one instant: the same queue state every call
// lets the CPU predict every branch of the scan, so it cannot see what a
// data-dependent branch costs, and it read the branch-free pickEDF as
// slower (80 → 105 ns/op) while the worlds that run it got faster. Here
// the queue, budgets and dispatch state move as they do in Table 6.
func BenchmarkRunTable6Single(b *testing.B) {
	s, _, _ := table6Host(b)
	s.RunFor(simtime.Seconds(2))
	events := s.EventsFired()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunFor(simtime.Millis(10))
	}
	b.StopTimer()
	if n := s.EventsFired() - events; n > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/event")
	}
}
