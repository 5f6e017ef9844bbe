package guest

import (
	"testing"

	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// TestSteadyStateZeroAlloc pins the allocation-free guest dispatch path:
// a ready queue that has reached its peak length pushes and removes in
// place, a gEDF pick scans the queues in place, and a job's whole life —
// release, run, complete — reuses a record from the guest's job pool. CI
// runs it as a zero-alloc guard.
func TestSteadyStateZeroAlloc(t *testing.T) {
	t.Run("readyQueue", func(t *testing.T) {
		q := &readyQueue{}
		tk := task.New(0, "t", task.Periodic, pp(1, 10))
		jobs := make([]*task.Job, 64)
		for i := range jobs {
			jobs[i] = tk.Release(simtime.Time(simtime.Millis(int64(i%7))), simtime.Millis(1))
		}
		cycle := func() {
			for _, j := range jobs {
				q.Push(j)
			}
			for len(q.items) > 0 {
				q.Remove(q.Head())
			}
		}
		cycle() // reach the peak length once
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Fatalf("ready-queue Push/Remove cycle allocates %.1f/op, want 0", n)
		}
		for _, s := range q.items[:cap(q.items)] {
			if s.job != nil {
				t.Fatal("ready queue's spare capacity still holds a removed job")
			}
		}
	})
	t.Run("release-complete", func(t *testing.T) {
		s, _, g := setup(t, 1, 1, DefaultConfig())
		tk := task.New(0, "sp", task.Sporadic, pp(1, 10))
		if err := g.Register(tk); err != nil {
			t.Fatal(err)
		}
		cycle := func() {
			g.ReleaseJob(tk, 0)
			s.RunFor(simtime.Millis(10))
		}
		cycle() // grow the pool and every queue to their peak once
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Fatalf("release-run-complete cycle allocates %.1f/op, want 0", n)
		}
		if st := tk.Stats(); st.Completed != st.Released || st.Released != 102 {
			t.Fatalf("stats %+v, want all 102 released jobs completed", st)
		}
		if len(g.free) != 1 {
			t.Fatalf("job pool holds %d records, want 1 (the peak live count)", len(g.free))
		}
		if g.free[0].Task != nil {
			t.Fatal("recycled job still holds its task")
		}
	})
	t.Run("gEDF-PickJob", func(t *testing.T) {
		s, _, g := gedfSetup(t, 2, 3)
		for i := 0; i < 6; i++ {
			tk := task.New(i, "t", task.Periodic, pp(10, 100))
			if err := g.Register(tk); err != nil {
				t.Fatal(err)
			}
			g.ReleaseAt(tk, s.Now(), 0)
		}
		s.RunFor(simtime.Millis(1))
		queued := 0
		for _, vs := range g.vcpus {
			queued += len(vs.ready.items)
		}
		if queued < 4 {
			t.Fatalf("only %d jobs queued, want the gEDF scan to cover several", queued)
		}
		v, now := g.vcpus[0].v, s.Now()
		if n := testing.AllocsPerRun(1000, func() { g.PickJob(v, now) }); n != 0 {
			t.Fatalf("gEDF PickJob allocates %.1f/op, want 0", n)
		}
	})
}

// BenchmarkPickJob times one guest-level pick, asked of each VCPU in turn,
// on a four-VCPU guest whose twelve periodic tasks have all released a
// job: pEDF reads the asking VCPU's queue head, gEDF scans every VCPU's
// queue for the earliest job not running elsewhere. queued is the number
// of jobs the queues hold at the timed instant.
func BenchmarkPickJob(b *testing.B) {
	for _, mode := range []struct {
		name string
		gedf bool
	}{{"pEDF", false}, {"gEDF", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.GEDF = mode.gedf
			s, _, g := setup(b, 2, 4, cfg)
			for i := 0; i < 12; i++ {
				tk := task.New(i, "t", task.Periodic, pp(int64(1+i%3), 40))
				if err := g.Register(tk); err != nil {
					b.Fatal(err)
				}
				g.ReleaseAt(tk, s.Now(), 0)
			}
			s.RunFor(simtime.Millis(1))
			queued := 0
			for _, vs := range g.vcpus {
				queued += len(vs.ready.items)
			}
			now := s.Now()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.PickJob(g.vcpus[i%len(g.vcpus)].v, now)
			}
			b.ReportMetric(float64(queued), "queued")
		})
	}
}
