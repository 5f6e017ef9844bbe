package task

import (
	"testing"
	"testing/quick"

	"rtvirt/internal/simtime"
)

func ms(n int64) simtime.Duration { return simtime.Millis(n) }

func TestParamsValidity(t *testing.T) {
	cases := []struct {
		p    Params
		want bool
	}{
		{Params{Slice: ms(5), Period: ms(10)}, true},
		{Params{Slice: ms(10), Period: ms(10)}, true},
		{Params{Slice: ms(11), Period: ms(10)}, false},
		{Params{Slice: 0, Period: ms(10)}, false},
		{Params{Slice: ms(5), Period: 0}, false},
		{Params{Slice: -1, Period: ms(10)}, false},
	}
	for _, c := range cases {
		if got := c.p.Valid(); got != c.want {
			t.Errorf("Valid(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestBandwidth(t *testing.T) {
	p := Params{Slice: ms(5), Period: ms(20)}
	if bw := p.Bandwidth(); bw != 0.25 {
		t.Fatalf("Bandwidth = %g, want 0.25", bw)
	}
	if (Params{}).Bandwidth() != 0 {
		t.Fatal("zero Params bandwidth should be 0")
	}
}

func TestInvalidParamsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid params did not panic")
		}
	}()
	New(1, "bad", Periodic, Params{Slice: ms(20), Period: ms(10)})
}

func TestPeriodicJobLifecycle(t *testing.T) {
	tk := New(1, "t1", Periodic, Params{Slice: ms(2), Period: ms(10)})
	j := tk.Release(simtime.Time(ms(100)), ms(2))
	if j.Deadline != simtime.Time(ms(110)) {
		t.Fatalf("deadline = %v, want 110ms", j.Deadline)
	}
	if j.Missed(simtime.Time(ms(105))) {
		t.Fatal("job not yet missed at 105ms")
	}
	if !j.Missed(simtime.Time(ms(111))) {
		t.Fatal("unfinished job past deadline must be missed")
	}
	if done := j.Consume(ms(1)); done {
		t.Fatal("half-consumed job reported done")
	}
	if done := j.Consume(ms(1)); !done {
		t.Fatal("fully-consumed job not reported done")
	}
	j.Complete(simtime.Time(ms(106)))
	st := tk.Stats()
	if st.Released != 1 || st.Completed != 1 || st.Missed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MeanResp() != ms(6) || st.MaxResp != ms(6) {
		t.Fatalf("response stats wrong: %+v", st)
	}
	if st.TotalWork != ms(2) {
		t.Fatalf("TotalWork = %v, want 2ms", st.TotalWork)
	}
}

func TestLateCompletionCountsMiss(t *testing.T) {
	tk := New(1, "t", Periodic, Params{Slice: ms(2), Period: ms(10)})
	j := tk.Release(0, ms(2))
	j.Consume(ms(2))
	j.Complete(simtime.Time(ms(15)))
	st := tk.Stats()
	if st.Missed != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v, want 1 miss + 1 completion", st)
	}
	if st.MaxLateness != ms(5) {
		t.Fatalf("MaxLateness = %v, want 5ms", st.MaxLateness)
	}
	if st.MissRatio() != 1 {
		t.Fatalf("MissRatio = %g, want 1", st.MissRatio())
	}
}

func TestAbandonCountsMiss(t *testing.T) {
	tk := New(1, "t", Periodic, Params{Slice: ms(2), Period: ms(10)})
	j := tk.Release(0, ms(2))
	j.Abandon(simtime.Time(ms(3)))
	st := tk.Stats()
	if st.Missed != 1 || st.Abandoned != 1 || st.Completed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Abandon is idempotent.
	j.Abandon(simtime.Time(ms(4)))
	if tk.Stats().Missed != 1 {
		t.Fatal("double Abandon double-counted")
	}
}

func TestBackgroundNeverMisses(t *testing.T) {
	tk := NewBackground(1, "bg")
	j := tk.Release(0, simtime.Seconds(100))
	if j.Deadline != simtime.Never {
		t.Fatal("background job must have no deadline")
	}
	if j.Missed(simtime.Time(simtime.Seconds(1000))) {
		t.Fatal("background job can never miss")
	}
	j.Abandon(simtime.Time(ms(1)))
	if tk.Stats().Missed != 0 {
		t.Fatal("abandoned background job counted as miss")
	}
}

func TestSporadicMinInterarrival(t *testing.T) {
	tk := New(1, "s", Sporadic, Params{Slice: ms(2), Period: ms(50)})
	tk.Release(simtime.Time(ms(10)), ms(2))
	if got := tk.EarliestNextRelease(); got != simtime.Time(ms(60)) {
		t.Fatalf("EarliestNextRelease = %v, want 60ms", got)
	}
}

func TestSetParamsAffectsFutureJobs(t *testing.T) {
	tk := New(1, "t", Periodic, Params{Slice: ms(2), Period: ms(10)})
	tk.SetParams(Params{Slice: ms(4), Period: ms(20)})
	j := tk.Release(0, ms(4))
	if j.Deadline != simtime.Time(ms(20)) {
		t.Fatalf("deadline = %v, want 20ms after SetParams", j.Deadline)
	}
}

// TestReleaseIntoRecycledRecord pins that a released-into record carries
// nothing from its previous life: a pooled job must equal a fresh one.
func TestReleaseIntoRecycledRecord(t *testing.T) {
	a := New(1, "a", Periodic, Params{Slice: ms(1), Period: ms(10)})
	b := New(2, "b", Sporadic, Params{Slice: ms(2), Period: ms(20)})
	j := a.Release(0, ms(1))
	j.Consume(ms(1))
	j.Complete(simtime.Time(ms(12)))
	j.Abandoned, j.Slot = true, 7
	b.ReleaseInto(j, simtime.Time(ms(30)), ms(2))
	want := Job{Task: b, Seq: 0, Release: simtime.Time(ms(30)), Deadline: simtime.Time(ms(50)),
		Demand: ms(2), Remaining: ms(2), Slot: -1}
	if *j != want {
		t.Fatalf("recycled record = %+v, want %+v", *j, want)
	}
	if fresh := b.Release(simtime.Time(ms(60)), ms(2)); fresh.Seq != 1 || fresh.Slot != -1 {
		t.Fatalf("fresh release after ReleaseInto = %+v, want Seq 1, Slot -1", *fresh)
	}
}

func TestOnJobDoneHook(t *testing.T) {
	tk := New(1, "t", Periodic, Params{Slice: ms(1), Period: ms(10)})
	var calls int
	tk.OnJobDone = func(j *Job) { calls++ }
	j := tk.Release(0, ms(1))
	j.Consume(ms(1))
	j.Complete(simtime.Time(ms(1)))
	j2 := tk.Release(simtime.Time(ms(10)), ms(1))
	j2.Abandon(simtime.Time(ms(11)))
	if calls != 2 {
		t.Fatalf("OnJobDone called %d times, want 2", calls)
	}
}

func TestConsumeGuards(t *testing.T) {
	tk := New(1, "t", Periodic, Params{Slice: ms(2), Period: ms(10)})
	j := tk.Release(0, ms(2))
	for _, bad := range []simtime.Duration{-1, ms(3)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Consume(%v) did not panic", bad)
				}
			}()
			j.Consume(bad)
		}()
	}
}

func TestCompleteGuards(t *testing.T) {
	tk := New(1, "t", Periodic, Params{Slice: ms(2), Period: ms(10)})
	j := tk.Release(0, ms(2))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Complete with remaining work did not panic")
			}
		}()
		j.Complete(simtime.Time(ms(1)))
	}()
	j.Consume(ms(2))
	j.Complete(simtime.Time(ms(2)))
	defer func() {
		if recover() == nil {
			t.Fatal("double Complete did not panic")
		}
	}()
	j.Complete(simtime.Time(ms(3)))
}

func TestKindString(t *testing.T) {
	if Periodic.String() != "periodic" || Sporadic.String() != "sporadic" ||
		Background.String() != "background" || Kind(99).String() == "" {
		t.Fatal("Kind.String wrong")
	}
}

// Property: for any valid params, bandwidth is in (0, 1] and the deadline
// of a released job is exactly release + period.
func TestQuickReleaseInvariants(t *testing.T) {
	f := func(sRaw, pRaw uint16, at uint32) bool {
		s := simtime.Duration(sRaw) + 1
		p := s + simtime.Duration(pRaw)
		tk := New(1, "q", Periodic, Params{Slice: s, Period: p})
		bw := tk.Params().Bandwidth()
		j := tk.Release(simtime.Time(at), s)
		return bw > 0 && bw <= 1 && j.Deadline == simtime.Time(at).Add(p) && j.Remaining == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Consume conserves work: total consumed over a job equals demand
// when the job completes.
func TestQuickConsumeConservation(t *testing.T) {
	f := func(chunksRaw []uint8) bool {
		var total simtime.Duration
		chunks := make([]simtime.Duration, 0, len(chunksRaw))
		for _, c := range chunksRaw {
			d := simtime.Duration(c) + 1
			chunks = append(chunks, d)
			total += d
		}
		if total == 0 {
			return true
		}
		tk := New(1, "q", Periodic, Params{Slice: total, Period: total * 2})
		j := tk.Release(0, total)
		var consumed simtime.Duration
		for _, c := range chunks {
			done := j.Consume(c)
			consumed += c
			if done != (consumed == total) {
				return false
			}
		}
		return j.Remaining == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
