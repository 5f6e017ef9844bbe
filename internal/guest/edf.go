package guest

import (
	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// readyQueue is a per-VCPU earliest-deadline-first priority queue of
// released, unfinished jobs. Ties break by release order so runs are
// deterministic. It is a binary heap whose slots hold their keys by value;
// a queued job records its slot in task.Job.Slot. gEDF PickJob scans the
// slots in array order with a strict <, which makes the layout among equal
// deadlines observable, so the sifts repeat container/heap's comparisons
// and moves exactly (same child choice, "down, else up" after a removal).
type readyQueue struct {
	items []readySlot
	seq   uint64
}

type readySlot struct {
	deadline simtime.Time
	seq      uint64
	job      *task.Job
}

func (a *readySlot) less(b *readySlot) bool {
	return a.deadline < b.deadline || a.deadline == b.deadline && a.seq < b.seq
}

// holds reports whether j occupies a slot of this queue.
func (q *readyQueue) holds(j *task.Job) bool {
	i := int(j.Slot)
	return i >= 0 && i < len(q.items) && q.items[i].job == j
}

// Push enqueues a job.
func (q *readyQueue) Push(j *task.Job) {
	if q.holds(j) {
		panic("guest: job enqueued twice")
	}
	q.items = append(q.items, readySlot{deadline: j.Deadline, seq: q.seq, job: j})
	q.seq++
	q.up(len(q.items) - 1)
}

// Head returns the earliest-deadline job without removing it, or nil.
func (q *readyQueue) Head() *task.Job {
	if len(q.items) == 0 {
		return nil
	}
	return q.items[0].job
}

// Remove deletes a job from the queue; it reports whether it was present.
func (q *readyQueue) Remove(j *task.Job) bool {
	if !q.holds(j) {
		return false
	}
	i, n := int(j.Slot), len(q.items)-1
	last := q.items[n]
	q.items[n] = readySlot{} // don't keep the job reachable from the spare capacity
	q.items = q.items[:n]
	j.Slot = -1
	if i != n {
		q.set(i, last)
		if !q.down(i) {
			q.up(i)
		}
	}
	return true
}

// Jobs returns a copy of the queued jobs in heap order (head first, rest
// unordered), for callers that remove or push while iterating. Read-only
// scans range over items directly and allocate nothing.
func (q *readyQueue) Jobs() []*task.Job {
	out := make([]*task.Job, len(q.items))
	for i := range q.items {
		out[i] = q.items[i].job
	}
	return out
}

func (q *readyQueue) set(i int, s readySlot) {
	q.items[i] = s
	s.job.Slot = int32(i)
}

// up moves the slot at i toward the root while it is less than its parent.
func (q *readyQueue) up(i int) {
	s := q.items[i]
	for p := (i - 1) / 2; i > 0 && s.less(&q.items[p]); p = (i - 1) / 2 {
		q.set(i, q.items[p])
		i = p
	}
	q.set(i, s)
}

// down moves the slot at i0 toward the leaves while a child is less, and
// reports whether it moved.
func (q *readyQueue) down(i0 int) bool {
	s, i, n := q.items[i0], i0, len(q.items)
	for c := 2*i + 1; c < n; c = 2*i + 1 {
		if r := c + 1; r < n && q.items[r].less(&q.items[c]) {
			c = r
		}
		if !q.items[c].less(&s) {
			break
		}
		q.set(i, q.items[c])
		i = c
	}
	q.set(i, s)
	return i > i0
}
