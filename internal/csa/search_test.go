package csa

import (
	"testing"

	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// refSchedulable is the schedulability test without the demand table: it
// rebuilds the test points and recomputes the dbf on every probe.
func refSchedulable(tasks []task.Params, iface Interface) bool {
	var util float64
	for _, p := range tasks {
		util += p.Bandwidth()
	}
	if util > iface.Bandwidth()+1e-12 {
		return false
	}
	for _, t := range testPoints(tasks, horizon(tasks)) {
		if DBF(tasks, t) > SBF(iface, t) {
			return false
		}
	}
	return true
}

// refMinBudgetQ is the budget search without the quantum grid: a binary
// search over every nanosecond of [0, period], then the result rounded up
// to the quantum and capped at the period.
func refMinBudgetQ(tasks []task.Params, period, quantum simtime.Duration) (simtime.Duration, bool) {
	if quantum <= 0 {
		quantum = 1
	}
	if !refSchedulable(tasks, Interface{Period: period, Budget: period}) {
		return 0, false
	}
	lo, hi := simtime.Duration(0), period
	for lo < hi {
		mid := lo + (hi-lo)/2
		if refSchedulable(tasks, Interface{Period: period, Budget: mid}) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if r := hi % quantum; r != 0 {
		hi += quantum - r
	}
	if hi > period {
		hi = period
	}
	return hi, true
}

func refBestInterfaceQ(tasks []task.Params, candidates []simtime.Duration, quantum simtime.Duration) (Interface, bool) {
	best := Interface{}
	found := false
	for _, period := range candidates {
		if period <= 0 {
			continue
		}
		theta, ok := refMinBudgetQ(tasks, period, quantum)
		if !ok {
			continue
		}
		c := Interface{Period: period, Budget: theta}
		if !found || c.Bandwidth() < best.Bandwidth()-1e-12 {
			best = c
			found = true
		}
	}
	return best, found
}

var testQuanta = []simtime.Duration{0, 1, simtime.Micros(333), simtime.Micros(500), ms(1)}

// table1Sets are the RTA groups of the paper's Table 1 (§4.2).
var table1Sets = [][]task.Params{
	{pp(13, 20), pp(25, 40), pp(49, 80), pp(19, 100)},
	{pp(7, 10), pp(13, 20), pp(18, 40), pp(13, 100)},
	{pp(5, 10), pp(13, 20), pp(31, 40), pp(10, 100)},
	{pp(13, 20), pp(26, 40), pp(39, 60), pp(13, 100)},
	{pp(23, 30), pp(13, 20), pp(5, 10), pp(10, 100)},
	{pp(11, 21), pp(26, 43), pp(40, 60), pp(13, 100)},
}

// table5RTAs are the single-RTA groups of the paper's Table 5 (§4.5).
var table5RTAs = []task.Params{
	pp(6, 75), pp(7, 92), pp(46, 188), pp(12, 102), pp(19, 139),
	pp(13, 124), pp(36, 260), pp(21, 159), pp(9, 103), pp(62, 208),
}

// Differential: the demand table and the quantum-grid search return what
// the per-probe, nanosecond search returns, on random task sets (periods
// not whole milliseconds included), every quantum the callers use and
// candidate periods off the quantum grid.
func TestMinBudgetQMatchesReference(t *testing.T) {
	rng := sim.NewRNG(28)
	n := 300
	if testing.Short() {
		n = 60
	}
	// The least budget of the first two sets is 0.
	sets := [][]task.Params{nil, {{Slice: 0, Period: ms(10)}}}
	for len(sets) < n {
		var tasks []task.Params
		for k := 1 + rng.Intn(4); len(tasks) < k; {
			var period simtime.Duration
			if rng.Intn(2) == 0 {
				period = ms(2 + rng.Int63n(60))
			} else {
				period = simtime.Micros(2000 + rng.Int63n(60000))
			}
			slice := simtime.Duration(rng.Int63n(int64(period)*6/10)) + 1
			tasks = append(tasks, task.Params{Slice: slice, Period: period})
		}
		sets = append(sets, tasks)
	}
	feasible, cases := 0, 0
	for _, tasks := range sets {
		periods := []simtime.Duration{0, -ms(3)}
		for k := 0; k < 5; k++ {
			periods = append(periods, simtime.Micros(100+rng.Int63n(12000)))
		}
		periods = append(periods, ms(1+rng.Int63n(10)))
		for _, period := range periods {
			for _, q := range testQuanta {
				want, wantOK := refMinBudgetQ(tasks, period, q)
				got, ok := MinBudgetQ(tasks, period, q)
				if got != want || ok != wantOK {
					t.Fatalf("MinBudgetQ(%v, %v, %v) = (%v, %v), reference (%v, %v)",
						tasks, period, q, got, ok, want, wantOK)
				}
				if ok != Schedulable(tasks, Interface{Period: period, Budget: period}) {
					t.Fatalf("MinBudgetQ(%v, %v, %v) ok = %v disagrees with Schedulable", tasks, period, q, ok)
				}
				cases++
				if ok {
					feasible++
				}
			}
		}
	}
	if feasible < cases/4 {
		t.Fatalf("only %d of %d cases feasible: the sets do not exercise the search", feasible, cases)
	}
	t.Logf("%d cases, %d feasible", cases, feasible)
}

// Differential on the paper's sets: every Table 1 group whole and each of
// its RTAs alone (Figure 3), and each Table 5 RTA in 1 to 10 copies
// (Table 6's per-VCPU packing).
func TestBestInterfaceQMatchesReference(t *testing.T) {
	var sets [][]task.Params
	for _, g := range table1Sets {
		sets = append(sets, g)
		for _, p := range g {
			sets = append(sets, []task.Params{p})
		}
	}
	for _, p := range table5RTAs {
		var set []task.Params
		for k := 0; k < 10; k++ {
			set = append(set, p)
			sets = append(sets, append([]task.Params(nil), set...))
		}
	}
	quanta := testQuanta
	if testing.Short() {
		quanta = []simtime.Duration{simtime.Micros(500), ms(1)}
	}
	for _, set := range sets {
		cands := DefaultCandidates(set)
		for _, q := range quanta {
			want, wantOK := refBestInterfaceQ(set, cands, q)
			got, ok := BestInterfaceQ(set, cands, q)
			if got != want || ok != wantOK {
				t.Fatalf("BestInterfaceQ(%v, quantum %v) = (%v, %v), reference (%v, %v)",
					set, q, got, ok, want, wantOK)
			}
		}
	}
}

// The search builds one demand table per call: its allocations do not
// grow with the number of candidate periods or of probes per period.
func TestBestInterfaceQAllocsConstant(t *testing.T) {
	set := []task.Params{table5RTAs[6]}
	all := DefaultCandidates(set)
	count := func(cands []simtime.Duration, q simtime.Duration) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, ok := BestInterfaceQ(set, cands, q); !ok {
				t.Fatal("no interface")
			}
		})
	}
	one := count(all[:1], ms(1))
	if one > 2 {
		t.Fatalf("BestInterfaceQ allocates %v times for one candidate, want ≤ 2", one)
	}
	if n := count(all, ms(1)); n != one {
		t.Fatalf("BestInterfaceQ allocates %v times for %d candidates, %v for one", n, len(all), one)
	}
	if n := count(all, 1); n != one {
		t.Fatalf("BestInterfaceQ allocates %v times at a 1ns quantum, %v at 1ms", n, one)
	}
}

func TestDefaultCandidatesNoPositivePeriod(t *testing.T) {
	for _, tasks := range [][]task.Params{
		nil,
		{},
		{{Slice: ms(1), Period: 0}},
		{{Slice: ms(1), Period: -ms(5)}, {Period: 0}},
	} {
		if got := DefaultCandidates(tasks); got != nil {
			t.Errorf("DefaultCandidates(%v) = %v, want nil", tasks, got)
		}
	}
	got := DefaultCandidates([]task.Params{pp(2, 5), pp(1, 3)})
	if len(got) != 3 || got[0] != ms(1) || got[2] != ms(3) {
		t.Errorf("DefaultCandidates = %v, want 1ms..3ms", got)
	}
	if got := DefaultCandidates([]task.Params{{Slice: 100, Period: simtime.Micros(400)}}); len(got) != 1 || got[0] != simtime.Micros(400) {
		t.Errorf("DefaultCandidates below 1ms = %v, want [400µs]", got)
	}
}

func TestBestInterfaceQNoCandidates(t *testing.T) {
	tasks := []task.Params{pp(5, 10)}
	for _, cands := range [][]simtime.Duration{nil, {}, {0, -ms(1)}} {
		if got, ok := BestInterfaceQ(tasks, cands, ms(1)); ok || got != (Interface{}) {
			t.Errorf("BestInterfaceQ(%v) = (%v, %v), want (Interface{}, false)", cands, got, ok)
		}
	}
	if got, ok := BestInterfaceQ(nil, DefaultCandidates(nil), ms(1)); ok || got != (Interface{}) {
		t.Errorf("BestInterfaceQ on an empty set = (%v, %v), want (Interface{}, false)", got, ok)
	}
}

// BenchmarkBestInterfaceQ is the CARTS-style search Table 6 runs for one
// Table 5 group: 260 candidate periods at 1ms resolution.
func BenchmarkBestInterfaceQ(b *testing.B) {
	set := []task.Params{table5RTAs[6]}
	cands := DefaultCandidates(set)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := BestInterfaceQ(set, cands, ms(1)); !ok {
			b.Fatal("no interface")
		}
	}
}
