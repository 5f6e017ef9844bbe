// Package eventq provides the cancellable pending-event queue that drives
// the discrete-event simulator.
//
// Events fire in non-decreasing time order; events scheduled for the same
// instant fire in FIFO order of insertion so that simulation runs are fully
// deterministic. The pop order is the total (time, insertion sequence)
// order.
//
// The queue is an intrusive 4-ary min-heap of chain heads. A chain is a run
// of pending events at one instant, linked through the records' next/prev
// fields in sequence order; the heap holds one entry per chain, keyed by
// its first event. Simulated workloads sit on a millisecond grid, so many
// pending events share an instant: when a head leaves the queue (fires, is
// cancelled, or is rescheduled) its successor takes the head's heap slot
// with no sift, and a pop at a crowded instant is O(1). A lone event takes
// the plain heap path. Each record carries its own heap index, so there is
// no container/heap indirection and no interface boxing, and a lone head
// is moved in place (Reschedule) with a single sift. The 4-ary layout
// halves the tree depth of a binary heap; the extra child comparisons per
// level are cheap linear scans over adjacent pointers.
//
// Chains grow through tails, a direct-mapped table indexed by a hash of
// the instant. Each entry is nil or the last event of the newest chain at
// its instant. An insert at instant T appends to tails[slot(T)] when that
// event is also at T; otherwise it pushes a new chain head into the heap.
// Either way the new event becomes the entry. Removing the event an entry
// holds sets the entry to that event's predecessor. The order stays exact
// because an entry is only ever overwritten by a newer event (at the same
// instant or at another instant sharing the slot), and falls back only to
// an older event of the same chain. So a chain takes appends only while it
// is the newest chain at its instant, and every event of an older chain at
// T has a smaller sequence number than every event of a newer chain at T.
// Two properties follow: each chain is in sequence order, and chains at
// one instant never interleave. A head's successor therefore orders before
// everything its head ordered before, and can take the head's heap slot as
// is.
//
// Cancellation is eager: Cancel unlinks the event, and a head with no
// successor leaves the heap through an index removal with one sift. The
// heap holds only pending events, never more entries than there are
// pending events, and its root is the earliest one, so PeekTime is a plain
// field read.
//
// Every event is a typed Payload: plain data, so a queue can always be
// deep-copied (CloneInto). The queue dispatches nothing itself; its owner
// (the simulator) pops the earliest event and routes it.
//
// Event records are pooled on a per-queue free list and reused across
// SchedulePayload calls, so the steady-state hot path (schedule → fire →
// reschedule) allocates nothing. Because records are recycled, callers
// hold a generation-checked Handle rather than a raw pointer — a Handle to
// an event that has fired, been cancelled, or been reused is simply inert.
package eventq

import (
	"rtvirt/internal/clone"
	"rtvirt/internal/simtime"
)

// arity is the heap fan-out. Children of node i are arity*i+1 ...
// arity*i+arity; the parent of node i is (i-1)/arity.
const arity = 4

// tailBits sizes the tails table at 1<<tailBits entries. 64 entries cover
// the distinct instants pending at once on the grid-aligned workloads (about
// ten); a collision only costs a chain that could have been longer.
const tailBits = 6

// slot maps an instant to its tails entry by Fibonacci hashing, which
// spreads multiples of a grid period across the table.
func slot(at simtime.Time) int {
	return int(uint64(at) * 0x9e3779b97f4a7c15 >> (64 - tailBits))
}

// Payload is the one form of a scheduled event: plain data naming a
// registered handler plus a (Kind, Owner) pair and one scalar argument.
// Because a Payload captures no pointers, a queue can always be
// deep-copied (CloneInto) — the copy re-binds each event to the forked
// handler of the same ID. It has four fields on purpose: the compiler
// keeps structs of at most four fields in registers, so a Payload passes
// through PostAt, Pop and a handler without a stack copy.
//
// Field meaning is owned by the handler: Kind selects one of its event
// types, Owner names the entity the event belongs to (a PCPU, VCPU, task,
// deployment or client), and Arg carries an event-specific scalar (a
// demand, a target ID, an epoch).
type Payload struct {
	Handler int32
	Kind    uint16
	Owner   int32
	Arg     int64
}

// Event is the pooled internal record for one scheduled event. Callers
// never hold an *Event directly; they hold a Handle.
type Event struct {
	// The fields a sift or a chain step touches come first.
	at  simtime.Time
	seq uint64 // insertion order tiebreak
	// idx is the record's heap slot while it heads a chain; -1 otherwise.
	idx int32
	// next and prev link the event's same-instant chain in sequence order;
	// a chain head has prev == nil. Both are nil off the queue.
	next, prev *Event
	gen        uint64 // bumped on every recycle and reschedule; validates Handles
	p          Payload
}

// Handle identifies one scheduled event. The zero Handle is valid and
// inert: Active reports false and Cancel is a no-op. A Handle goes inert
// the moment its event fires, is cancelled, or is rescheduled (Reschedule
// returns the replacement) — even if the underlying record is later reused
// for an unrelated event, the generation check keeps the old Handle from
// touching it.
type Handle struct {
	e   *Event
	gen uint64
}

// Active reports whether the event is still queued and will fire. A
// record's generation moves on whenever it leaves the queue, so a matching
// generation means the event is pending.
func (h Handle) Active() bool {
	return h.e != nil && h.e.gen == h.gen
}

// At reports the instant the event is scheduled for, or simtime.Never if
// the Handle is no longer active.
func (h Handle) At() simtime.Time {
	if !h.Active() {
		return simtime.Never
	}
	return h.e.at
}

// Queue is a time-ordered queue of events. The zero value is ready to use.
// A Queue (like the simulator it drives) is single-threaded; concurrent
// simulation runs each own their own Queue.
type Queue struct {
	h     []*Event // chain heads
	tails [1 << tailBits]*Event
	free  []*Event // recycled records, bounded by peak live events
	seq   uint64
	live  int // pending events
}

// Len reports the number of pending events in the queue.
func (q *Queue) Len() int { return q.live }

// less orders events by (time, insertion sequence).
func less(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// SchedulePayload enqueues the event p to fire at instant at and returns a
// Handle that can be used to cancel or move it.
func (q *Queue) SchedulePayload(at simtime.Time, p Payload) Handle {
	e := q.insert(at)
	e.p = p
	return Handle{e: e, gen: e.gen}
}

// insert allocates (or recycles) a pending record at instant at and links
// it into the queue. The caller fills in the payload.
func (q *Queue) insert(at simtime.Time) *Event {
	var e *Event
	if n := len(q.free); n > 0 {
		e = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
	} else {
		e = &Event{}
	}
	q.live++
	q.place(e, at)
	return e
}

// place gives the unlinked record e the next sequence number at instant at
// and links it in: appended to the newest chain at at when the tails table
// holds it, otherwise pushed into the heap as a new chain head.
func (q *Queue) place(e *Event, at simtime.Time) {
	e.at, e.seq = at, q.seq
	q.seq++
	s := &q.tails[slot(at)]
	if t := *s; t != nil && t.at == at {
		t.next, e.prev, e.idx = e, t, -1
	} else {
		q.h = append(q.h, e)
		q.siftUp(len(q.h) - 1)
	}
	*s = e
}

// unlink removes the pending event e from its chain and, when e heads the
// chain, from the heap: a successor takes the head's heap slot without a
// sift (see the package doc), and a lone head leaves by index removal.
func (q *Queue) unlink(e *Event) {
	if s := &q.tails[slot(e.at)]; *s == e {
		*s = e.prev
	}
	n := e.next
	if p := e.prev; p != nil {
		p.next = n
		if n != nil {
			n.prev = p
		}
	} else if n != nil {
		n.prev = nil
		n.idx = e.idx
		q.h[e.idx] = n
	} else {
		q.removeAt(int(e.idx))
	}
	e.next, e.prev, e.idx = nil, nil, -1
}

// Cancel removes the event from the queue if it has not fired yet. It is
// idempotent and inert on zero, fired, cancelled, and recycled Handles —
// in particular, cancelling after the event fired cannot corrupt Len.
func (q *Queue) Cancel(h Handle) {
	if !h.Active() {
		return
	}
	q.unlink(h.e)
	q.live--
	q.recycle(h.e)
}

// Reschedule moves a still-pending event to instant at, keeping its
// payload, and returns the replacement Handle (the one passed in goes
// inert). It is semantically identical to Cancel followed by
// SchedulePayload with the same payload — in particular the event is
// assigned a fresh insertion sequence number, so among events scheduled
// for the same instant it fires after those already queued, exactly as a
// fresh insert would. It reuses the record: a lone event moving to an instant with no
// chain to join is re-keyed where it sits with a single sift; otherwise
// the event is unlinked and placed again.
//
// Rescheduling an inactive Handle panics: the payload of a fired or
// cancelled event is gone, so there is nothing to move — callers that can
// race a firing check Active first.
func (q *Queue) Reschedule(h Handle, at simtime.Time) Handle {
	if !h.Active() {
		panic("eventq: Reschedule of inactive handle")
	}
	e := h.e
	e.gen++ // invalidate the old handle, as cancel+schedule would
	if e.prev == nil && e.next == nil {
		// Clear e's own entry first, so a move to the same instant cannot
		// find e as the chain to append to.
		if s := &q.tails[slot(e.at)]; *s == e {
			*s = nil
		}
		if s := &q.tails[slot(at)]; *s == nil || (*s).at != at {
			e.at, e.seq = at, q.seq
			q.seq++
			*s = e
			q.fix(int(e.idx))
			return Handle{e: e, gen: e.gen}
		}
	}
	q.unlink(e)
	q.place(e, at)
	return Handle{e: e, gen: e.gen}
}

// PeekTime reports the firing time of the earliest pending event, or
// simtime.Never when the queue is empty. O(1): the root heads the earliest
// chain.
func (q *Queue) PeekTime() simtime.Time {
	if len(q.h) == 0 {
		return simtime.Never
	}
	return q.h[0].at
}

// Pop removes the earliest pending event and returns its instant and
// payload; popping an empty queue panics (check PeekTime first). The
// event record is recycled before Pop returns, so a handler that
// immediately reschedules reuses it without allocating. A pop whose event
// has a same-instant successor is O(1); a lone event's pop is one heap
// descent.
func (q *Queue) Pop() (simtime.Time, Payload) {
	// unlink specialized to the root, which heads its chain.
	e := q.h[0]
	if s := &q.tails[slot(e.at)]; *s == e {
		*s = nil
	}
	if n := e.next; n != nil {
		n.prev, n.idx = nil, 0
		q.h[0] = n
		e.next = nil
	} else {
		q.removeRoot()
	}
	e.idx = -1
	q.live--
	at, p := e.at, e.p
	q.recycle(e)
	return at, p
}

// removeRoot deletes heap slot 0, filling it with the last slot's head
// (one descent).
func (q *Queue) removeRoot() {
	n := len(q.h) - 1
	last := q.h[n]
	q.h[n] = nil
	q.h = q.h[:n]
	if n > 0 {
		q.h[0] = last
		q.siftDown(0)
	}
}

// removeAt deletes heap slot i, filling it with the last slot's head.
func (q *Queue) removeAt(i int) {
	n := len(q.h) - 1
	last := q.h[n]
	q.h[n] = nil
	q.h = q.h[:n]
	if i < n {
		q.h[i] = last
		last.idx = int32(i)
		q.fix(i)
	}
}

// fix restores heap order after the key at slot i changed in either
// direction.
func (q *Queue) fix(i int) {
	q.siftUp(i)
	if int(q.h[i].idx) == i {
		q.siftDown(i)
	}
}

// siftUp moves the event at index i toward the root until its parent is
// not larger. Displaced ancestors shift down one level each; the moving
// event is written once at its final slot.
func (q *Queue) siftUp(i int) {
	e := q.h[i]
	for i > 0 {
		p := (i - 1) / arity
		pe := q.h[p]
		if !less(e, pe) {
			break
		}
		q.h[i] = pe
		pe.idx = int32(i)
		i = p
	}
	q.h[i] = e
	e.idx = int32(i)
}

// siftDown moves the event at index i toward the leaves until no child is
// smaller.
func (q *Queue) siftDown(i int) {
	e := q.h[i]
	n := len(q.h)
	for {
		c := arity*i + 1
		if c >= n {
			break
		}
		end := c + arity
		if end > n {
			end = n
		}
		m := c
		mc := q.h[c]
		for j := c + 1; j < end; j++ {
			if less(q.h[j], mc) {
				m, mc = j, q.h[j]
			}
		}
		if !less(mc, e) {
			break
		}
		q.h[i] = mc
		mc.idx = int32(i)
		i = m
	}
	q.h[i] = e
	e.idx = int32(i)
}

// recycle returns an unlinked record to the free list, invalidating
// outstanding Handles to it.
func (q *Queue) recycle(e *Event) {
	e.gen++
	e.p = Payload{}
	q.free = append(q.free, e)
}

// CloneInto deep-copies the queue's pending events into dst, which must be
// empty. Every pending event keeps its (at, seq) pair and generation
// exactly, and the seq counter is carried over, so the copy fires the same
// events in the same order and numbers future insertions identically — the
// forked run is bit-identical to the original. The free list is not
// copied; it is unobservable.
//
// Each chain is walked and every event is copied as a lone chain head,
// with an empty tails table in the copy. That is valid because every
// copied chain is closed to appends: any later insert in dst has a larger
// sequence number than all copied events and starts a chain of its own.
//
// Each old record's clone is memoized in ctx so callers can remap the
// Handles they hold (CloneHandle).
func (q *Queue) CloneInto(dst *Queue, ctx *clone.Ctx) {
	dst.h = make([]*Event, 0, q.live)
	for _, head := range q.h {
		for e := head; e != nil; e = e.next {
			ne := &Event{at: e.at, seq: e.seq, gen: e.gen, p: e.p}
			ctx.Put(e, ne)
			dst.h = append(dst.h, ne)
		}
	}
	dst.seq = q.seq
	dst.live = len(dst.h)
	n := len(dst.h)
	for i, e := range dst.h {
		e.idx = int32(i)
	}
	// Heapify; pop order is total on (at, seq), so layout differences from
	// the source heap are unobservable.
	if n > 1 {
		for i := (n - 2) / arity; i >= 0; i-- {
			dst.siftDown(i)
		}
	}
}

// CloneHandle maps a Handle into a queue previously copied with CloneInto
// using the same ctx. Inactive handles (zero, fired, cancelled) map to the
// inert zero Handle; active ones map to the clone of their event and stay
// active.
func CloneHandle(ctx *clone.Ctx, h Handle) Handle {
	if !h.Active() {
		return Handle{}
	}
	n, ok := ctx.Lookup(h.e)
	if !ok {
		panic("eventq: CloneHandle for an event from a different queue")
	}
	return Handle{e: n.(*Event), gen: h.gen}
}
