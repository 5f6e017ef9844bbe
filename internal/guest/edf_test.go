package guest

import (
	"container/heap"
	"math/rand"
	"testing"

	"rtvirt/internal/simtime"
	"rtvirt/internal/task"
)

// refQueue is the container/heap ready queue the intrusive one replaced,
// kept as the reference for its slot layout.
type refQueue struct {
	items []*refItem
	seq   uint64
}

type refItem struct {
	job *task.Job
	seq uint64
	idx int
}

func (h *refQueue) Len() int { return len(h.items) }

func (h *refQueue) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.job.Deadline != b.job.Deadline {
		return a.job.Deadline < b.job.Deadline
	}
	return a.seq < b.seq
}

func (h *refQueue) Swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].idx = i
	h.items[j].idx = j
}

func (h *refQueue) Push(x any) {
	it := x.(*refItem)
	it.idx = len(h.items)
	h.items = append(h.items, it)
}

func (h *refQueue) Pop() any {
	n := len(h.items)
	it := h.items[n-1]
	h.items = h.items[:n-1]
	return it
}

// TestReadyQueueMatchesContainerHeap drives the ready queue and the
// container/heap reference through the same random Push/Remove/Head
// sequences, with deadlines drawn from a handful of values so most keys
// tie, and requires identical slot layouts after every operation: gEDF
// PickJob scans the slots in array order, so the layout decides which of
// several equal-deadline jobs it picks.
func TestReadyQueueMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := &readyQueue{}
		ref := &refQueue{}
		refOf := map[*task.Job]*refItem{}
		tasks := []*task.Task{
			task.New(0, "a", task.Periodic, pp(1, 10)),
			task.New(1, "b", task.Periodic, pp(1, 20)),
		}
		var queued, spare []*task.Job
		for op := 0; op < 10000; op++ {
			switch r := rng.Intn(10); {
			case r < 5 || len(queued) == 0: // push, reusing removed records
				var j *task.Job
				if n := len(spare); n > 0 {
					j, spare = spare[n-1], spare[:n-1]
				} else {
					j = new(task.Job)
				}
				now := simtime.Time(simtime.Millis(int64(rng.Intn(4))))
				tasks[rng.Intn(len(tasks))].ReleaseInto(j, now, simtime.Millis(1))
				q.Push(j)
				it := &refItem{job: j, seq: ref.seq}
				ref.seq++
				refOf[j] = it
				heap.Push(ref, it)
				queued = append(queued, j)
			case r < 9: // remove a queued job, the head half of the time
				k := rng.Intn(len(queued))
				if rng.Intn(2) == 0 {
					for i, j := range queued {
						if j == q.Head() {
							k = i
						}
					}
				}
				j := queued[k]
				queued[k] = queued[len(queued)-1]
				queued = queued[:len(queued)-1]
				if !q.Remove(j) {
					t.Fatalf("seed %d op %d: Remove of a queued job reported false", seed, op)
				}
				heap.Remove(ref, refOf[j].idx)
				delete(refOf, j)
				if j.Slot != -1 {
					t.Fatalf("seed %d op %d: removed job keeps slot %d", seed, op, j.Slot)
				}
				spare = append(spare, j)
			default: // remove a job this queue does not hold
				if len(spare) > 0 && q.Remove(spare[rng.Intn(len(spare))]) {
					t.Fatalf("seed %d op %d: Remove of an absent job reported true", seed, op)
				}
			}
			if len(q.items) != len(ref.items) {
				t.Fatalf("seed %d op %d: Len %d, reference %d", seed, op, len(q.items), len(ref.items))
			}
			for i, it := range ref.items {
				if q.items[i].job != it.job || q.items[i].seq != it.seq || int(it.job.Slot) != i {
					t.Fatalf("seed %d op %d: slot %d differs from container/heap", seed, op, i)
				}
			}
			if len(ref.items) > 0 && q.Head() != ref.items[0].job {
				t.Fatalf("seed %d op %d: Head differs from container/heap", seed, op)
			}
		}
	}
}
