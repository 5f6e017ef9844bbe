package guest

import (
	"container/heap"

	"rtvirt/internal/task"
)

// readyQueue is a per-VCPU earliest-deadline-first priority queue of
// released, unfinished jobs. Ties break by release order so runs are
// deterministic.
type readyQueue struct {
	items []*readyItem
	index map[*task.Job]*readyItem
	seq   uint64
	// free recycles removed items, so a queue whose length has peaked
	// pushes and removes without allocating.
	free []*readyItem
}

type readyItem struct {
	job *task.Job
	seq uint64
	idx int
}

func newReadyQueue() *readyQueue {
	return &readyQueue{index: map[*task.Job]*readyItem{}}
}

// Len reports the number of queued jobs.
func (q *readyQueue) Len() int { return len(q.items) }

// Push enqueues a job.
func (q *readyQueue) Push(j *task.Job) {
	if _, dup := q.index[j]; dup {
		panic("guest: job enqueued twice")
	}
	var it *readyItem
	if n := len(q.free); n > 0 {
		it = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		it = new(readyItem)
	}
	it.job, it.seq = j, q.seq
	q.seq++
	q.index[j] = it
	heap.Push((*readyHeap)(q), it)
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
	it, ok := q.index[j]
	if !ok {
		return false
	}
	heap.Remove((*readyHeap)(q), it.idx)
	delete(q.index, j)
	it.job = nil // don't keep the finished job reachable from the free list
	q.free = append(q.free, it)
	return true
}

// Jobs returns a copy of the queued jobs in heap order (head first, rest
// unordered), for callers that remove or push while iterating. Read-only
// scans range over items directly and allocate nothing.
func (q *readyQueue) Jobs() []*task.Job {
	out := make([]*task.Job, len(q.items))
	for i, it := range q.items {
		out[i] = it.job
	}
	return out
}

// readyHeap adapts readyQueue to container/heap.
type readyHeap readyQueue

func (h *readyHeap) Len() int { return len(h.items) }

func (h *readyHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.job.Deadline != b.job.Deadline {
		return a.job.Deadline < b.job.Deadline
	}
	return a.seq < b.seq
}

func (h *readyHeap) Swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].idx = i
	h.items[j].idx = j
}

func (h *readyHeap) Push(x any) {
	it := x.(*readyItem)
	it.idx = len(h.items)
	h.items = append(h.items, it)
}

func (h *readyHeap) Pop() any {
	old := h.items
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	it.idx = -1
	h.items = old[:n-1]
	return it
}
