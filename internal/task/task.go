// Package task models the real-time applications (RTAs) and background
// applications (BGAs) that run inside guest VMs.
//
// The model follows §3.1 of the RTVirt paper: once activated, a task needs
// a slice of CPU time s within a period p; its deadline is the end of the
// period. Periodic tasks release a job every p; sporadic tasks release a
// job on an external trigger, at least p apart. Background tasks have no
// deadline and soak up leftover bandwidth.
package task

import (
	"fmt"

	"rtvirt/internal/simtime"
)

// Kind classifies a task's activation model.
type Kind int

// Task kinds.
const (
	Periodic Kind = iota
	Sporadic
	Background
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Periodic:
		return "periodic"
	case Sporadic:
		return "sporadic"
	case Background:
		return "background"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Params is the timeliness requirement a task declares when it registers:
// Slice units of CPU time every Period, deadline at the end of the period.
type Params struct {
	Slice  simtime.Duration
	Period simtime.Duration
}

// Valid reports whether the parameters describe a schedulable requirement.
func (p Params) Valid() bool {
	return p.Slice > 0 && p.Period > 0 && p.Slice <= p.Period
}

// Bandwidth reports the fraction of one CPU the task needs (s/p).
func (p Params) Bandwidth() float64 {
	if p.Period == 0 {
		return 0
	}
	return float64(p.Slice) / float64(p.Period)
}

// String implements fmt.Stringer.
func (p Params) String() string { return fmt.Sprintf("(s=%v, p=%v)", p.Slice, p.Period) }

// Stats accumulates per-task timeliness outcomes.
type Stats struct {
	Released    int // jobs released
	Completed   int // jobs that ran to completion
	Abandoned   int // jobs discarded before completion
	Missed      int // late completions plus abandoned deadline jobs
	TotalResp   simtime.Duration
	MaxResp     simtime.Duration
	TotalWork   simtime.Duration // CPU time actually consumed
	MaxLateness simtime.Duration
}

// Judged is the number of jobs with a final verdict (completed or
// abandoned); jobs still in flight count in neither direction.
func (s Stats) Judged() int { return s.Completed + s.Abandoned }

// MissRatio reports the fraction of judged jobs that missed their deadline.
func (s Stats) MissRatio() float64 {
	if s.Judged() == 0 {
		return 0
	}
	return float64(s.Missed) / float64(s.Judged())
}

// MeanResp reports the mean response time over completed jobs.
func (s Stats) MeanResp() simtime.Duration {
	if s.Completed == 0 {
		return 0
	}
	return s.TotalResp / simtime.Duration(s.Completed)
}

// Task is a single application thread with a timeliness requirement.
// A Task is not safe for concurrent use; the simulator is single-threaded.
type Task struct {
	ID   int
	Name string
	Kind Kind

	params Params

	// VCPU is the guest VCPU index the task is pinned to (pEDF), or -1
	// when unassigned. Maintained by the guest scheduler.
	VCPU int

	// Priority expresses relative importance (0 = normal). §6: scheduling
	// slack can be assigned in proportion to priorities so that more
	// important RTAs are less likely to miss.
	Priority int

	// GuestSlot is the task's owner ID in the guest OS it was last
	// registered with, kept there by that guest so its release path finds
	// the task without a lookup. Nothing else reads it.
	GuestSlot int32

	// OnJobDone, if set, is invoked whenever a job completes or is
	// abandoned; workloads use it to record latencies. j is valid only
	// for the duration of the call: once a completion has been handled
	// the guest reuses the record (see Job).
	OnJobDone func(j *Job)

	stats Stats

	nextRelease simtime.Time // earliest permitted next activation (sporadic)
	seq         int
}

// New creates a task. Name is for diagnostics only.
func New(id int, name string, kind Kind, p Params) *Task {
	if !p.Valid() && kind != Background {
		panic(fmt.Sprintf("task: invalid params %v for %s task %q", p, kind, name))
	}
	return &Task{ID: id, Name: name, Kind: kind, params: p, VCPU: -1}
}

// NewBackground creates a best-effort task with no deadline.
func NewBackground(id int, name string) *Task {
	return &Task{ID: id, Name: name, Kind: Background, VCPU: -1}
}

// Params reports the task's current timeliness requirement.
func (t *Task) Params() Params { return t.params }

// SetParams updates the requirement; it affects jobs released afterwards.
func (t *Task) SetParams(p Params) {
	if !p.Valid() && t.Kind != Background {
		panic(fmt.Sprintf("task: invalid params %v for task %q", p, t.Name))
	}
	t.params = p
}

// Stats reports the accumulated timeliness outcomes.
func (t *Task) Stats() Stats { return t.stats }

// Release creates a job activated at now. demand is the job's actual CPU
// need; pass t.Params().Slice for the declared worst case. For background
// tasks the deadline is Never.
func (t *Task) Release(now simtime.Time, demand simtime.Duration) *Job {
	j := new(Job)
	t.ReleaseInto(j, now, demand)
	return j
}

// ReleaseInto is Release writing into a caller-owned record: every field
// of j is overwritten, so a recycled record carries nothing over.
func (t *Task) ReleaseInto(j *Job, now simtime.Time, demand simtime.Duration) {
	if demand <= 0 {
		panic(fmt.Sprintf("task: job with non-positive demand %v", demand))
	}
	deadline := simtime.Never
	if t.Kind != Background {
		deadline = now.Add(t.params.Period)
	}
	t.stats.Released++
	*j = Job{
		Task:      t,
		Seq:       t.seq,
		Release:   now,
		Deadline:  deadline,
		Demand:    demand,
		Remaining: demand,
		Slot:      -1,
	}
	t.seq++
	if t.Kind == Sporadic {
		t.nextRelease = now.Add(t.params.Period)
	}
}

// EarliestNextRelease reports the earliest instant a sporadic task may be
// activated again (its minimum inter-arrival constraint). For periodic and
// background tasks it returns 0 (no constraint tracked here).
func (t *Task) EarliestNextRelease() simtime.Time { return t.nextRelease }

// Job is one activation of a task.
//
// A job released through a guest OS is owned by that guest: the pointer
// is valid until the job's completion has been handled (Complete, the
// task's OnJobDone, and the kernel's completion bookkeeping), after which
// the guest zeroes the record and reuses it for a later release. A holder
// that outlives the completion therefore sees Task == nil and panics on
// its first dereference; copy *j inside OnJobDone to keep the outcome.
// Abandoned jobs are never reused.
type Job struct {
	Task      *Task
	Seq       int
	Release   simtime.Time
	Deadline  simtime.Time
	Demand    simtime.Duration
	Remaining simtime.Duration

	// Finish is the completion instant, valid once Done.
	Finish simtime.Time
	Done   bool
	// Abandoned marks a job discarded before completion (e.g. at
	// simulation end or task unregister).
	Abandoned bool

	// Slot is the job's index in the ready queue holding it, or -1 when
	// it is not queued. Only that queue maintains it.
	Slot int32
}

// Missed reports whether the job has definitively missed its deadline as of
// instant now.
func (j *Job) Missed(now simtime.Time) bool {
	if j.Deadline == simtime.Never {
		return false
	}
	if j.Done {
		return j.Finish > j.Deadline
	}
	return now > j.Deadline
}

// Consume charges d of execution to the job and reports whether it
// completed. d must not exceed Remaining.
func (j *Job) Consume(d simtime.Duration) bool {
	if d < 0 || d > j.Remaining {
		panic(fmt.Sprintf("task: Consume(%v) with remaining %v", d, j.Remaining))
	}
	j.Remaining -= d
	j.Task.stats.TotalWork += d
	return j.Remaining == 0
}

// Complete marks the job finished at now and updates task stats.
func (j *Job) Complete(now simtime.Time) {
	if j.Done {
		panic("task: double Complete")
	}
	if j.Remaining != 0 {
		panic(fmt.Sprintf("task: Complete with %v work remaining", j.Remaining))
	}
	j.Done = true
	j.Finish = now
	st := &j.Task.stats
	st.Completed++
	resp := now.Sub(j.Release)
	st.TotalResp += resp
	if resp > st.MaxResp {
		st.MaxResp = resp
	}
	if j.Deadline != simtime.Never && now > j.Deadline {
		st.Missed++
		if late := now.Sub(j.Deadline); late > st.MaxLateness {
			st.MaxLateness = late
		}
	}
	if j.Task.OnJobDone != nil {
		j.Task.OnJobDone(j)
	}
}

// Abandon marks an unfinished job as discarded at now. It counts as a miss
// if its deadline had passed or could never be met.
func (j *Job) Abandon(now simtime.Time) {
	if j.Done {
		return
	}
	j.Done = true
	j.Abandoned = true
	j.Finish = now
	st := &j.Task.stats
	st.Abandoned++
	if j.Deadline != simtime.Never {
		st.Missed++
	}
	if j.Task.OnJobDone != nil {
		j.Task.OnJobDone(j)
	}
}
