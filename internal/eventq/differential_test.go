package eventq

import (
	"math/rand"
	"testing"

	"rtvirt/internal/simtime"
)

// refEvent is one pending event in the naive reference model.
type refEvent struct {
	at  simtime.Time
	seq uint64
	id  int
}

// refModel is a sorted-slice reference implementation of the queue's
// semantics: fire in (time, insertion-sequence) order, cancellation by id,
// reschedule = cancel + fresh insert with the same id.
type refModel struct {
	pending []refEvent
	seq     uint64
}

func (m *refModel) schedule(at simtime.Time, id int) {
	m.pending = append(m.pending, refEvent{at: at, seq: m.seq, id: id})
	m.seq++
}

func (m *refModel) find(id int) int {
	for i, e := range m.pending {
		if e.id == id {
			return i
		}
	}
	return -1
}

func (m *refModel) cancel(id int) {
	if i := m.find(id); i >= 0 {
		m.pending = append(m.pending[:i], m.pending[i+1:]...)
	}
}

func (m *refModel) reschedule(id int, at simtime.Time) {
	m.cancel(id)
	m.schedule(at, id)
}

func (m *refModel) peek() simtime.Time {
	if len(m.pending) == 0 {
		return simtime.Never
	}
	min := 0
	for i := 1; i < len(m.pending); i++ {
		e, b := m.pending[i], m.pending[min]
		if e.at < b.at || (e.at == b.at && e.seq < b.seq) {
			min = i
		}
	}
	return m.pending[min].at
}

func (m *refModel) fire() (int, bool) {
	if len(m.pending) == 0 {
		return 0, false
	}
	min := 0
	for i := 1; i < len(m.pending); i++ {
		e, b := m.pending[i], m.pending[min]
		if e.at < b.at || (e.at == b.at && e.seq < b.seq) {
			min = i
		}
	}
	id := m.pending[min].id
	m.pending = append(m.pending[:min], m.pending[min+1:]...)
	return id, true
}

// TestDifferentialAgainstReferenceModel drives ~1e5 random
// schedule/cancel/reschedule/fire operations through the intrusive 4-ary
// heap and the sorted-slice reference model in lockstep, checking Len,
// PeekTime, and every fired event id after each operation. The
// cancel/reschedule mix exercises the heap's tombstone/compaction
// machinery. Seeds are logged so a failure reproduces with a one-line
// change.
func TestDifferentialAgainstReferenceModel(t *testing.T) {
	seeds := []int64{1, 7, 42, 20260806}
	for _, seed := range seeds {
		t.Logf("differential seed %d", seed)
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		var m refModel

		type liveEvent struct {
			h  Handle
			id int
		}
		var live []liveEvent
		nextID := 0
		fired := -1
		const ops = 100_000
		randTime := func() simtime.Time { return simtime.Time(rng.Int63n(1 << 20)) }

		for op := 0; op < ops; op++ {
			switch r := rng.Intn(10); {
			case r < 4 || len(live) == 0: // schedule
				id := nextID
				nextID++
				at := randTime()
				h := q.Schedule(at, func(simtime.Time) { fired = id })
				m.schedule(at, id)
				live = append(live, liveEvent{h: h, id: id})
			case r < 6: // cancel
				i := rng.Intn(len(live))
				q.Cancel(live[i].h)
				m.cancel(live[i].id)
				live = append(live[:i], live[i+1:]...)
			case r < 8: // reschedule an active handle in place
				i := rng.Intn(len(live))
				at := randTime()
				live[i].h = q.Reschedule(live[i].h, at)
				m.reschedule(live[i].id, at)
			default: // fire
				fired = -1
				want, ok := m.fire()
				if got := q.Fire(); got != ok {
					t.Fatalf("seed %d op %d: Fire = %v, model %v", seed, op, got, ok)
				}
				if ok && fired != want {
					t.Fatalf("seed %d op %d: fired id %d, model %d", seed, op, fired, want)
				}
				if ok {
					for i := range live {
						if live[i].id == want {
							live = append(live[:i], live[i+1:]...)
							break
						}
					}
				}
			}
			if q.Len() != len(m.pending) {
				t.Fatalf("seed %d op %d: Len = %d, model %d", seed, op, q.Len(), len(m.pending))
			}
			if q.PeekTime() != m.peek() {
				t.Fatalf("seed %d op %d: PeekTime = %v, model %v", seed, op, q.PeekTime(), m.peek())
			}
		}
		// Drain and compare the tail ordering.
		for {
			fired = -1
			want, ok := m.fire()
			if got := q.Fire(); got != ok {
				t.Fatalf("seed %d drain: Fire = %v, model %v", seed, got, ok)
			}
			if ok && fired != want {
				t.Fatalf("seed %d drain: fired id %d, model %d", seed, fired, want)
			}
			if !ok {
				break
			}
		}
		if q.Len() != 0 {
			t.Fatalf("seed %d: Len after drain = %d", seed, q.Len())
		}
	}
}

// TestSteadyStateZeroAlloc locks the zero-allocation property of the
// steady-state kernel path: a standing event being rescheduled plus a
// schedule→fire stream must not allocate once the free list and the heap's
// backing array are warm. The subtest is named after the queue it checks.
func TestSteadyStateZeroAlloc(t *testing.T) {
	t.Run("heap", steadyStateZeroAlloc)
}

func steadyStateZeroAlloc(t *testing.T) {
	var q Queue
	nop := func(simtime.Time) {}
	standing := make([]Handle, 64)
	for i := range standing {
		standing[i] = q.Schedule(simtime.Time(1_000_000+i), nop)
	}
	// Warm the free list and the heap's backing array.
	for i := 0; i < 1024; i++ {
		q.Schedule(simtime.Time(i), nop)
	}
	for q.Len() > len(standing) {
		q.Fire()
	}
	now := simtime.Time(0)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		k := i % len(standing)
		standing[k] = q.Reschedule(standing[k], now+1_000_000)
		q.Schedule(now+1, nop)
		q.Fire()
		now++
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule→fire→reschedule allocates %.1f/op, want 0", allocs)
	}
}
