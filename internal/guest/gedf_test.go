package guest

import (
	"testing"

	"rtvirt/internal/hv"
	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// gedfSetup builds a host with the cross-layer test scheduler and a gEDF
// guest with the given VCPU count.
func gedfSetup(t testing.TB, pcpus, vcpus int) (*sim.Simulator, *hv.Host, *OS) {
	t.Helper()
	s := sim.New(11)
	h := hv.NewHost(s, pcpus, &clSched{}, hv.CostModel{})
	cfg := DefaultConfig()
	cfg.GEDF = true
	g, err := NewOS(h, "vm0", cfg, vcpus)
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	return s, h, g
}

func TestGEDFJobMigratesAcrossVCPUs(t *testing.T) {
	s, _, g := gedfSetup(t, 2, 2)
	// Two tasks nominally pinned to vcpu0, but under gEDF either VCPU may
	// execute either job — so both can run in parallel.
	a := task.New(0, "a", task.Periodic, pp(4, 10))
	b := task.New(1, "b", task.Periodic, pp(4, 10))
	if err := g.Register(a); err != nil {
		t.Fatal(err)
	}
	if err := g.Register(b); err != nil {
		t.Fatal(err)
	}
	var aJob, bJob *task.Job
	keepDone(a, &aJob)
	keepDone(b, &bJob)
	g.ReleaseAt(a, s.Now(), 0)
	g.ReleaseAt(b, s.Now(), 0)
	s.RunFor(simtime.Millis(6))
	if !aJob.Done || !bJob.Done {
		t.Fatalf("jobs not done: a=%v b=%v", aJob.Done, bJob.Done)
	}
	// Sequential execution would finish the second at 8ms; parallel gEDF
	// finishes both by 4ms.
	if aJob.Finish > simtime.Time(ppms(5)) || bJob.Finish > simtime.Time(ppms(5)) {
		t.Fatalf("gEDF did not parallelise: a=%v b=%v", aJob.Finish, bJob.Finish)
	}
}

func ppms(n int64) simtime.Duration { return simtime.Millis(n) }

func TestGEDFNeverRunsOneJobTwice(t *testing.T) {
	s, _, g := gedfSetup(t, 2, 2)
	a := task.New(0, "a", task.Periodic, pp(6, 10))
	if err := g.Register(a); err != nil {
		t.Fatal(err)
	}
	g.ReleaseAt(a, s.Now(), 0)
	s.RunFor(simtime.Millis(20))
	st := a.Stats()
	// A single 6ms job must take exactly 6ms of work — double execution
	// would trip the kernel's double-dispatch panic or inflate TotalWork.
	if st.TotalWork != ppms(6) {
		t.Fatalf("TotalWork = %v, want 6ms", st.TotalWork)
	}
}

func TestGEDFIdleVCPUPicksUpUrgentJob(t *testing.T) {
	// The long job occupies vcpu0; the short job's release must wake the
	// idle vcpu1, which picks it up under the global queue.
	s, _, g := gedfSetup(t, 2, 2)
	long := task.New(0, "long", task.Periodic, pp(8, 100))
	short := task.New(1, "short", task.Periodic, pp(1, 10))
	if err := g.Register(long); err != nil {
		t.Fatal(err)
	}
	if err := g.Register(short); err != nil {
		t.Fatal(err)
	}
	var shortJob *task.Job
	keepDone(short, &shortJob)
	g.ReleaseAt(long, s.Now(), 0)
	g.ReleaseAt(short, s.Now().Add(simtime.Millis(2)), 0)
	s.RunFor(simtime.Millis(20))
	if !shortJob.Done || shortJob.Finish > simtime.Time(ppms(4)) {
		t.Fatalf("short job not served promptly under gEDF: %+v", shortJob)
	}
	if shortJob.Missed(s.Now()) {
		t.Fatal("short job missed under gEDF preemption")
	}
}

func TestGEDFCompletedJobRemovedFromAnyQueue(t *testing.T) {
	s, _, g := gedfSetup(t, 2, 2)
	a := task.New(0, "a", task.Periodic, pp(2, 10))
	if err := g.Register(a); err != nil {
		t.Fatal(err)
	}
	g.StartPeriodic(a, 0)
	s.RunFor(simtime.Seconds(1))
	if st := a.Stats(); st.Completed < 99 || st.Missed != 0 {
		t.Fatalf("gEDF periodic stats: %+v", st)
	}
}
