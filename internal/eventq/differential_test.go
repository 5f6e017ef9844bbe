package eventq

import (
	"fmt"
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

// differ drives a Queue and the reference model in lockstep. Every method
// applies one operation to both; fire and check report the first
// disagreement.
type differ struct {
	q     Queue
	m     refModel
	live  []liveEvent
	next  int
	fired int
}

type liveEvent struct {
	h  Handle
	id int
}

func (d *differ) schedule(at simtime.Time) {
	id := d.next
	d.next++
	h := schedule(&d.q, at, func(simtime.Time) { d.fired = id })
	d.m.schedule(at, id)
	d.live = append(d.live, liveEvent{h: h, id: id})
}

func (d *differ) cancel(i int) {
	cancel(&d.q, d.live[i].h)
	d.m.cancel(d.live[i].id)
	d.live = append(d.live[:i], d.live[i+1:]...)
}

func (d *differ) reschedule(i int, at simtime.Time) {
	d.live[i].h = d.q.Reschedule(d.live[i].h, at)
	d.m.reschedule(d.live[i].id, at)
}

// fire pops one event from both and reports whether the model had one.
func (d *differ) fire() (bool, error) {
	d.fired = -1
	want, ok := d.m.fire()
	if got := fire(&d.q); got != ok {
		return ok, fmt.Errorf("fire = %v, model %v", got, ok)
	}
	if !ok {
		return false, nil
	}
	if d.fired != want {
		return true, fmt.Errorf("fired id %d, model %d", d.fired, want)
	}
	for i := range d.live {
		if d.live[i].id == want {
			d.live = append(d.live[:i], d.live[i+1:]...)
			break
		}
	}
	return true, nil
}

func (d *differ) check() error {
	if d.q.Len() != len(d.m.pending) {
		return fmt.Errorf("Len = %d, model %d", d.q.Len(), len(d.m.pending))
	}
	if d.q.PeekTime() != d.m.peek() {
		return fmt.Errorf("PeekTime = %v, model %v", d.q.PeekTime(), d.m.peek())
	}
	return nil
}

// drain fires both to empty, comparing the tail of the ordering.
func (d *differ) drain() error {
	for {
		ok, err := d.fire()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
	}
	if d.q.Len() != 0 {
		return fmt.Errorf("Len after drain = %d", d.q.Len())
	}
	return nil
}

// chainPos names e's place in its same-instant chain.
func chainPos(e *Event) string {
	switch {
	case e.prev == nil && e.next == nil:
		return "lone"
	case e.prev == nil:
		return "head"
	case e.next == nil:
		return "tail"
	default:
		return "middle"
	}
}

// checkInvariants verifies the queue's structure: heap order and indices
// over the chain heads, sequence-ordered chains whose events total Len,
// tails entries that end a chain at their own slot, and chains at one
// instant that do not interleave.
func checkInvariants(q *Queue) error {
	type span struct{ first, last uint64 }
	spans := map[simtime.Time][]span{}
	n := 0
	for i, h := range q.h {
		if int(h.idx) != i || h.prev != nil {
			return fmt.Errorf("heap slot %d: idx %d, prev %v", i, h.idx, h.prev != nil)
		}
		if i > 0 && less(h, q.h[(i-1)/arity]) {
			return fmt.Errorf("heap slot %d orders before its parent", i)
		}
		e := h
		for ; ; e = e.next {
			n++
			if e != h && (e.idx != -1 || e.prev.next != e) {
				return fmt.Errorf("chain at %v: bad links or idx %d", h.at, e.idx)
			}
			if e.next == nil {
				break
			}
			if e.next.at != e.at || e.next.seq <= e.seq {
				return fmt.Errorf("chain at %v out of order", h.at)
			}
		}
		spans[h.at] = append(spans[h.at], span{h.seq, e.seq})
	}
	if n != q.live {
		return fmt.Errorf("chains hold %d events, Len %d", n, q.live)
	}
	for _, ss := range spans {
		for i := range ss {
			for j := range ss {
				if i != j && ss[i].first < ss[j].first && ss[j].first < ss[i].last {
					return fmt.Errorf("chains at one instant interleave")
				}
			}
		}
	}
	for s, e := range q.tails {
		if e == nil {
			continue
		}
		if slot(e.at) != s || e.next != nil {
			return fmt.Errorf("tails[%d] is not the end of a chain in its slot", s)
		}
		h := e
		for h.prev != nil {
			h = h.prev
		}
		if int(h.idx) >= len(q.h) || h.idx < 0 || q.h[h.idx] != h {
			return fmt.Errorf("tails[%d] is not queued", s)
		}
	}
	return nil
}

// fewInstants returns eight instants on a 1 ms grid. The last shares a
// tails entry with the first, so chains at those two instants close each
// other.
func fewInstants() []simtime.Time {
	ms := simtime.Time(simtime.Millisecond)
	ts := make([]simtime.Time, 0, 8)
	for k := simtime.Time(1); k <= 7; k++ {
		ts = append(ts, k*ms)
	}
	for k := simtime.Time(8); ; k++ {
		if slot(k*ms) == slot(ts[0]) {
			return append(ts, k*ms)
		}
	}
}

// runDifferential applies ops random schedule/cancel/reschedule/fire
// operations with instants drawn by randTime, checking Len, PeekTime and
// every fired id after each one and the structure every 64. It returns
// how often each chain position was cancelled and rescheduled, and how
// many inserts found their tails entry held by another instant.
func runDifferential(t *testing.T, seed int64, rng *rand.Rand, randTime func() simtime.Time) (map[string]int, int) {
	t.Helper()
	const ops = 100_000
	d := &differ{}
	pos := map[string]int{}
	evictions := 0
	for op := 0; op < ops; op++ {
		switch r := rng.Intn(10); {
		case r < 4 || len(d.live) == 0:
			at := randTime()
			if e := d.q.tails[slot(at)]; e != nil && e.at != at {
				evictions++
			}
			d.schedule(at)
		case r < 6:
			i := rng.Intn(len(d.live))
			pos["cancel "+chainPos(d.live[i].h.e)]++
			d.cancel(i)
		case r < 8:
			i := rng.Intn(len(d.live))
			pos["reschedule "+chainPos(d.live[i].h.e)]++
			d.reschedule(i, randTime())
		default:
			if _, err := d.fire(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
		if err := d.check(); err != nil {
			t.Fatalf("seed %d op %d: %v", seed, op, err)
		}
		if op%64 == 0 {
			if err := checkInvariants(&d.q); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
	}
	if err := d.drain(); err != nil {
		t.Fatalf("seed %d drain: %v", seed, err)
	}
	return pos, evictions
}

// TestDifferentialAgainstReferenceModel drives ~1e5 random
// schedule/cancel/reschedule/fire operations per seed through the queue
// and the sorted-slice reference model in lockstep, checking Len,
// PeekTime, and every fired event id after each operation. Wide mode draws
// times from 2^20 values, so nearly every event is alone at its instant
// and the plain heap paths run. Few-instants mode draws from fewInstants,
// so chains form, and it requires that heads, middles and tails were each
// cancelled and rescheduled and that the colliding pair shared an entry.
// Seeds are logged so a failure reproduces with a one-line change.
func TestDifferentialAgainstReferenceModel(t *testing.T) {
	seeds := []int64{1, 7, 42, 20260806}
	for _, seed := range seeds {
		t.Logf("differential seed %d, wide", seed)
		rng := rand.New(rand.NewSource(seed))
		runDifferential(t, seed, rng, func() simtime.Time { return simtime.Time(rng.Int63n(1 << 20)) })
	}
	instants := fewInstants()
	for _, seed := range seeds {
		t.Logf("differential seed %d, few instants", seed)
		rng := rand.New(rand.NewSource(seed))
		pos, evictions := runDifferential(t, seed, rng, func() simtime.Time { return instants[rng.Intn(len(instants))] })
		for _, op := range []string{"cancel", "reschedule"} {
			for _, p := range []string{"head", "middle", "tail"} {
				if pos[op+" "+p] == 0 {
					t.Errorf("seed %d: no %s of a chain %s", seed, op, p)
				}
			}
		}
		if evictions == 0 {
			t.Errorf("seed %d: the colliding instants never shared a tails entry", seed)
		}
	}
}

// FuzzQueueDifferential decodes its input into schedule, cancel,
// reschedule and fire operations over fewInstants and checks the queue
// against the reference model and its own invariants after each one. Each
// operation takes two bytes: the low two bits of the first pick the
// operation and the rest the instant; the second picks the live event.
func FuzzQueueDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 4, 0, 28, 0, 0, 0, 1, 1, 2, 0, 3, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 2, 1, 6, 0, 1, 1, 3, 0, 3, 0})
	f.Add([]byte{28, 0, 0, 0, 28, 0, 0, 0, 1, 0, 30, 1, 3, 0})
	instants := fewInstants()
	f.Fuzz(func(t *testing.T, in []byte) {
		d := &differ{}
		for k := 0; k+1 < len(in); k += 2 {
			b, arg := in[k], int(in[k+1])
			at := instants[int(b>>2)%len(instants)]
			switch op := b & 3; {
			case op == 0 || len(d.live) == 0:
				d.schedule(at)
			case op == 1:
				d.cancel(arg % len(d.live))
			case op == 2:
				d.reschedule(arg%len(d.live), at)
			default:
				if _, err := d.fire(); err != nil {
					t.Fatalf("op %d: %v", k/2, err)
				}
			}
			if err := d.check(); err != nil {
				t.Fatalf("op %d: %v", k/2, err)
			}
			if err := checkInvariants(&d.q); err != nil {
				t.Fatalf("op %d: %v", k/2, err)
			}
		}
		if err := d.drain(); err != nil {
			t.Fatalf("drain: %v", err)
		}
	})
}

// TestSteadyStateZeroAlloc locks the zero-allocation property of the
// steady-state kernel path: a standing event being rescheduled plus a
// schedule→fire stream must not allocate once the free list and the heap's
// backing array are warm. The first subtest is named after the queue it
// checks; the second runs the same-instant chain paths.
func TestSteadyStateZeroAlloc(t *testing.T) {
	t.Run("heap", steadyStateZeroAlloc)
	t.Run("same-instant", sameInstantZeroAlloc)
}

func steadyStateZeroAlloc(t *testing.T) {
	var q Queue
	nop := func(simtime.Time) {}
	standing := make([]Handle, 64)
	for i := range standing {
		standing[i] = schedule(&q, simtime.Time(1_000_000+i), nop)
	}
	// Warm the free list and the heap's backing array.
	for i := 0; i < 1024; i++ {
		schedule(&q, simtime.Time(i), nop)
	}
	for q.Len() > len(standing) {
		fire(&q)
	}
	now := simtime.Time(0)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		k := i % len(standing)
		standing[k] = q.Reschedule(standing[k], now+1_000_000)
		schedule(&q, now+1, nop)
		fire(&q)
		now++
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule→fire→reschedule allocates %.1f/op, want 0", allocs)
	}
}

// sameInstantZeroAlloc re-arms 16 standing timers to now+1ms, one per op,
// while 16 quantum timers fire and re-arm themselves on the same grid, so
// appends, chain pops and moves of chain members all run.
func sameInstantZeroAlloc(t *testing.T) {
	const ms = simtime.Millisecond
	var q Queue
	var now simtime.Time
	mark := func(at simtime.Time) { now = at }
	var quantum func(at simtime.Time)
	quantum = func(at simtime.Time) {
		now = at
		schedule(&q, at.Add(ms), quantum)
	}
	standing := make([]Handle, 16)
	for i := range standing {
		schedule(&q, simtime.Time(ms), quantum)
		standing[i] = schedule(&q, simtime.Time(ms), mark)
	}
	i := 0
	op := func() {
		k := i % len(standing)
		if standing[k].Active() {
			standing[k] = q.Reschedule(standing[k], now.Add(ms))
		} else {
			standing[k] = schedule(&q, now.Add(ms), mark)
		}
		fire(&q)
		i++
	}
	for j := 0; j < 1024; j++ { // warm the free list and the heap
		op()
	}
	if allocs := testing.AllocsPerRun(1000, op); allocs != 0 {
		t.Fatalf("same-instant schedule→fire→reschedule allocates %.1f/op, want 0", allocs)
	}
	if len(q.h) >= q.Len() {
		t.Fatalf("%d heap heads for %d events: no chains formed", len(q.h), q.Len())
	}
}
