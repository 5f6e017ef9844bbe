package eventq

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"rtvirt/internal/clone"
	"rtvirt/internal/simtime"
)

// fns is the test-local callback table behind schedule, cancel and fire:
// a payload's Arg indexes its event's func, and a slot returns to the free
// list when its event fires or is cancelled, so a warm queue schedules
// without allocating. Tests in this package run one at a time, so one
// table serves every queue.
var fns struct {
	tab  []func(simtime.Time)
	free []int64
}

// schedule enqueues fn at instant at as a payload event naming its table
// slot.
func schedule(q *Queue, at simtime.Time, fn func(simtime.Time)) Handle {
	var i int64
	if n := len(fns.free); n > 0 {
		i, fns.free = fns.free[n-1], fns.free[:n-1]
		fns.tab[i] = fn
	} else {
		i = int64(len(fns.tab))
		fns.tab = append(fns.tab, fn)
	}
	return q.SchedulePayload(at, Payload{Arg: i})
}

// cancel cancels an event posted with schedule and frees its slot.
func cancel(q *Queue, h Handle) {
	if h.Active() {
		releaseFn(h.e.p.Arg)
	}
	q.Cancel(h)
}

// fire pops q's earliest event and runs its func; it reports false when q
// is empty.
func fire(q *Queue) bool {
	if q.Len() == 0 {
		return false
	}
	callFn(q.Pop())
	return true
}

func callFn(now simtime.Time, p Payload) {
	fn := fns.tab[p.Arg]
	releaseFn(p.Arg)
	fn(now)
}

func releaseFn(i int64) {
	fns.tab[i] = nil
	fns.free = append(fns.free, i)
}

// TestPayloadFitsRegisters pins Payload's shape. cmd/compile keeps a
// struct in SSA registers only while it has at most MaxStruct = 4 fields
// and at most four pointer words (32 bytes); past either limit every
// PostAt, Pop and HandleSimEvent copies the payload through the stack.
func TestPayloadFitsRegisters(t *testing.T) {
	typ := reflect.TypeOf(Payload{})
	if n := typ.NumField(); n > 4 {
		t.Errorf("Payload has %d fields, want at most 4", n)
	}
	if size := typ.Size(); size > 32 {
		t.Errorf("Payload is %d bytes, want at most 32", size)
	}
}

// CloneInto of a queue with same-instant chains copies every event as a
// lone head, and CloneHandle maps handles to a chain's head, middle and
// tail. The same operations on both queues must then fire the same ids,
// although in the source they append to open chains and in the copy they
// start new ones.
func TestCloneIntoChains(t *testing.T) {
	const ms = simtime.Time(simtime.Millisecond)
	var src, dst Queue
	var got [2][]int32
	var hs []Handle
	for id := int32(0); id < 30; id++ {
		hs = append(hs, src.SchedulePayload(simtime.Time(1+id%3)*ms, Payload{Owner: id}))
	}
	// The chain at 1 ms holds ids 0, 3, ..., 27.
	picked := [3]Handle{hs[0], hs[12], hs[27]}
	for i, pos := range []string{"head", "middle", "tail"} {
		if p := chainPos(picked[i].e); p != pos {
			t.Fatalf("handle %d is a chain %s, want %s", i, p, pos)
		}
	}
	ctx := clone.New()
	src.CloneInto(&dst, ctx)
	if err := checkInvariants(&dst); err != nil {
		t.Fatalf("copy: %v", err)
	}
	handles := [2][3]Handle{picked}
	for i, h := range picked {
		c := CloneHandle(ctx, h)
		if !c.Active() || c.At() != h.At() {
			t.Fatalf("cloned handle %d: active %v at %v, want active at %v", i, c.Active(), c.At(), h.At())
		}
		handles[1][i] = c
	}
	for k, q := range []*Queue{&src, &dst} {
		h := handles[k]
		q.Cancel(h[0])
		q.Reschedule(h[1], 2*ms)
		q.Reschedule(h[2], 1*ms)
		q.SchedulePayload(1*ms, Payload{Owner: 100})
		q.SchedulePayload(3*ms, Payload{Owner: 101})
		if err := checkInvariants(q); err != nil {
			t.Fatalf("queue %d: %v", k, err)
		}
		for q.Len() > 0 {
			_, p := q.Pop()
			got[k] = append(got[k], p.Owner)
		}
	}
	if len(got[0]) != 31 || !slices.Equal(got[0], got[1]) {
		t.Fatalf("source fired %v,\ncopy fired %v", got[0], got[1])
	}
}

func TestFireOrder(t *testing.T) {
	var q Queue
	var got []int
	schedule(&q, 30, func(simtime.Time) { got = append(got, 3) })
	schedule(&q, 10, func(simtime.Time) { got = append(got, 1) })
	schedule(&q, 20, func(simtime.Time) { got = append(got, 2) })
	for fire(&q) {
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order = %v, want %v", got, want)
		}
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		schedule(&q, 42, func(simtime.Time) { got = append(got, i) })
	}
	for fire(&q) {
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events out of insertion order at %d: got %d", i, v)
		}
	}
}

func TestCancel(t *testing.T) {
	var q Queue
	fired := false
	h := schedule(&q, 5, func(simtime.Time) { fired = true })
	if !h.Active() {
		t.Fatal("freshly scheduled handle not active")
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
	cancel(&q, h)
	if q.Len() != 0 {
		t.Fatalf("Len after cancel = %d, want 0", q.Len())
	}
	if h.Active() {
		t.Fatal("cancelled handle still active")
	}
	cancel(&q, h)        // idempotent
	cancel(&q, Handle{}) // zero handle is inert
	for fire(&q) {
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

// Regression: cancelling a handle whose event already fired must be a
// no-op. The pre-Handle implementation decremented q.len in this case,
// driving Len negative and desynchronizing it from the heap.
func TestCancelAfterFireDoesNotCorruptLen(t *testing.T) {
	var q Queue
	h := schedule(&q, 1, func(simtime.Time) {})
	schedule(&q, 2, func(simtime.Time) {})
	if !fire(&q) { // fires h's event
		t.Fatal("fire returned false")
	}
	if h.Active() {
		t.Fatal("fired handle still active")
	}
	cancel(&q, h)
	if q.Len() != 1 {
		t.Fatalf("Len after cancel-after-fire = %d, want 1", q.Len())
	}
	if !fire(&q) {
		t.Fatal("remaining event did not fire")
	}
	if q.Len() != 0 {
		t.Fatalf("Len drained = %d, want 0", q.Len())
	}
}

// Regression: a stale handle must not cancel an unrelated event that
// recycled the same record.
func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	var q Queue
	h1 := schedule(&q, 1, func(simtime.Time) {})
	fire(&q) // record goes to the free list
	fired := false
	h2 := schedule(&q, 2, func(simtime.Time) { fired = true }) // reuses the record
	cancel(&q, h1)                                             // stale — must not touch h2's event
	if !h2.Active() {
		t.Fatal("recycled event killed by stale handle")
	}
	for fire(&q) {
	}
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

func TestCancelMiddle(t *testing.T) {
	var q Queue
	var got []int
	var hs []Handle
	for i := 0; i < 10; i++ {
		i := i
		hs = append(hs, schedule(&q, simtime.Time(i), func(simtime.Time) { got = append(got, i) }))
	}
	cancel(&q, hs[3])
	cancel(&q, hs[7])
	for fire(&q) {
	}
	if len(got) != 8 {
		t.Fatalf("fired %d events, want 8", len(got))
	}
	for _, v := range got {
		if v == 3 || v == 7 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
}

func TestPeekTime(t *testing.T) {
	var q Queue
	if q.PeekTime() != simtime.Never {
		t.Fatal("empty queue PeekTime should be Never")
	}
	schedule(&q, 99, func(simtime.Time) {})
	h := schedule(&q, 7, func(simtime.Time) {})
	if q.PeekTime() != 7 {
		t.Fatalf("PeekTime = %v, want 7", q.PeekTime())
	}
	// Cancelling the root must advance PeekTime at once.
	cancel(&q, h)
	if q.PeekTime() != 99 {
		t.Fatalf("PeekTime after cancelling head = %v, want 99", q.PeekTime())
	}
}

func TestHandleAt(t *testing.T) {
	var q Queue
	h := schedule(&q, 1234, func(simtime.Time) {})
	if h.At() != 1234 {
		t.Fatalf("At = %v, want 1234", h.At())
	}
	cancel(&q, h)
	if h.At() != simtime.Never {
		t.Fatalf("At on inert handle = %v, want Never", h.At())
	}
}

func TestFireReceivesScheduledTime(t *testing.T) {
	var q Queue
	var at simtime.Time
	schedule(&q, 777, func(now simtime.Time) { at = now })
	fire(&q)
	if at != 777 {
		t.Fatalf("callback now = %v, want 777", at)
	}
}

// Pooling must not allocate on the steady-state schedule→fire cycle, and a
// callback that reschedules immediately must be able to reuse the record
// it is firing from.
func TestRescheduleFromCallbackReusesRecord(t *testing.T) {
	var q Queue
	count := 0
	var tick func(now simtime.Time)
	tick = func(now simtime.Time) {
		count++
		if count < 100 {
			schedule(&q, now+1, tick)
		}
	}
	schedule(&q, 0, tick)
	for fire(&q) {
	}
	if count != 100 {
		t.Fatalf("ticked %d times, want 100", count)
	}
	if n := len(q.free); n != 1 {
		t.Fatalf("free list holds %d records after self-rescheduling loop, want 1", n)
	}
}

// The name dates from lazy cancellation, when compaction had to bound the
// heap. Cancel now unlinks eagerly, so the heap never holds more entries
// than pending events; the bound still pins that.
func TestCompactionBoundsTombstones(t *testing.T) {
	var q Queue
	// Repeatedly cancel-and-reschedule a far-future event, the hv.setEvent
	// pattern, whose cancelled events the clock never reaches.
	h := schedule(&q, 1_000_000, func(simtime.Time) {})
	for i := 0; i < 10_000; i++ {
		cancel(&q, h)
		h = schedule(&q, simtime.Time(1_000_000+i), func(simtime.Time) {})
	}
	if len(q.h) > 256 {
		t.Fatalf("heap holds %d entries for 1 live event; cancelled events stayed", len(q.h))
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
}

// Property: firing a randomly scheduled set of events yields them in sorted
// time order, and every live event fires exactly once.
func TestQuickSortedOrder(t *testing.T) {
	f := func(times []int16) bool {
		var q Queue
		var fired []simtime.Time
		for _, v := range times {
			at := simtime.Time(int64(v) + 1<<15)
			schedule(&q, at, func(now simtime.Time) { fired = append(fired, now) })
		}
		for fire(&q) {
		}
		if len(fired) != len(times) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: same-instant events fire in insertion order even when records
// are recycled between batches (stability must come from seq, not from
// record identity).
func TestQuickStableOrderWithRecycling(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		var got []int
		next := 0
		for batch := 0; batch < 5; batch++ {
			at := simtime.Time(batch * 100)
			for i := 0; i < 1+rng.Intn(20); i++ {
				id := next
				next++
				schedule(&q, at, func(simtime.Time) { got = append(got, id) })
			}
			for fire(&q) {
			}
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return len(got) == next
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: random interleavings of Schedule/Cancel/Pop keep Len equal to
// scheduled − cancelled − fired, and fire exactly the non-cancelled events
// in time order.
func TestQuickCancelConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		var fired []simtime.Time
		var hs []Handle
		scheduled, cancelled, firedCount := 0, 0, 0
		for i := 0; i < 500; i++ {
			switch r := rng.Intn(6); {
			case r <= 2 || len(hs) == 0:
				h := schedule(&q, simtime.Time(rng.Int63n(1000)), func(now simtime.Time) { fired = append(fired, now) })
				hs = append(hs, h)
				scheduled++
			case r <= 4:
				h := hs[rng.Intn(len(hs))]
				if h.Active() {
					cancelled++
				}
				cancel(&q, h)
			default:
				if fire(&q) {
					firedCount++
				}
			}
			if q.Len() != scheduled-cancelled-firedCount {
				return false
			}
		}
		want := q.Len()
		drained := 0
		for fire(&q) {
			drained++
		}
		if drained != want || q.Len() != 0 {
			return false
		}
		return len(fired) == scheduled-cancelled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRescheduleMovesEventInPlace(t *testing.T) {
	var q Queue
	var fired []simtime.Time
	record := func(now simtime.Time) { fired = append(fired, now) }
	h := schedule(&q, 100, record)
	schedule(&q, 60, record)

	h2 := q.Reschedule(h, 50) // decrease-key past the other event
	if h.Active() {
		t.Fatal("old handle still active after Reschedule")
	}
	if !h2.Active() || h2.At() != 50 {
		t.Fatalf("new handle At = %v, want 50", h2.At())
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (reschedule must not grow the queue)", q.Len())
	}
	if q.PeekTime() != 50 {
		t.Fatalf("PeekTime = %v, want 50", q.PeekTime())
	}
	h3 := q.Reschedule(h2, 70) // increase-key back past it
	for fire(&q) {
	}
	if len(fired) != 2 || fired[0] != 60 || fired[1] != 70 {
		t.Fatalf("fired %v, want [60 70]", fired)
	}
	if h3.Active() {
		t.Fatal("handle still active after firing")
	}
}

// Reschedule must behave exactly like Cancel+Schedule for same-instant
// FIFO ordering: the moved event takes a fresh insertion sequence number,
// so it fires after events already queued for that instant.
func TestRescheduleFIFOSemantics(t *testing.T) {
	var q Queue
	var got []string
	a := schedule(&q, 10, func(simtime.Time) { got = append(got, "a") })
	schedule(&q, 10, func(simtime.Time) { got = append(got, "b") })
	q.Reschedule(a, 10) // same instant: a now ranks after b
	for fire(&q) {
	}
	if len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Fatalf("fire order %v, want [b a]", got)
	}
}

func TestRescheduleInactivePanics(t *testing.T) {
	var q Queue
	h := schedule(&q, 1, func(simtime.Time) {})
	fire(&q)
	defer func() {
		if recover() == nil {
			t.Fatal("Reschedule of a fired handle did not panic")
		}
	}()
	q.Reschedule(h, 2)
}

// Rescheduling the root to a later time sifts a child up; with a cancelled
// event below the root, PeekTime (a plain field read) must still report
// the earliest pending event.
func TestRescheduleRootPastTombstone(t *testing.T) {
	var q Queue
	var fired []simtime.Time
	record := func(now simtime.Time) { fired = append(fired, now) }
	a := schedule(&q, 1, record)
	b := schedule(&q, 2, record)
	schedule(&q, 3, record)
	cancel(&q, b) // below the root
	q.Reschedule(a, 5)
	if q.PeekTime() != 3 {
		t.Fatalf("PeekTime = %v, want 3 (cancelled event must not surface)", q.PeekTime())
	}
	for fire(&q) {
	}
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 5 {
		t.Fatalf("fired %v, want [3 5]", fired)
	}
}

// A pop after a run of cancellations behind the head must pop the next
// pending event, and PeekTime must skip the cancelled run.
func TestFireSkipsTombstoneChain(t *testing.T) {
	var q Queue
	var fired []simtime.Time
	record := func(now simtime.Time) { fired = append(fired, now) }
	var hs []Handle
	for i := 1; i <= 8; i++ {
		hs = append(hs, schedule(&q, simtime.Time(i), record))
	}
	// Cancel a contiguous run 2..6 behind the live head.
	for _, h := range hs[1:6] {
		cancel(&q, h)
	}
	if q.PeekTime() != 1 {
		t.Fatalf("PeekTime = %v, want 1", q.PeekTime())
	}
	if !fire(&q) { // pops 1
		t.Fatal("fire returned false")
	}
	if q.PeekTime() != 7 {
		t.Fatalf("PeekTime after the pop = %v, want 7", q.PeekTime())
	}
	for fire(&q) {
	}
	want := []simtime.Time{1, 7, 8}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

// Regression from lazy cancellation: with compaction triggered only from
// Cancel, fires could shrink the live population far below half the heap,
// and a subsequent Schedule grew the heap past the 2×live bound. Eager
// cancellation meets the bound by construction; the test keeps it pinned.
func TestScheduleTriggersCompaction(t *testing.T) {
	var q Queue
	nop := func(simtime.Time) {}
	var hs []Handle
	for i := 0; i < 400; i++ {
		hs = append(hs, schedule(&q, simtime.Time(1000+i), nop))
	}
	// Cancel the far half (never the head).
	for _, h := range hs[200:] {
		cancel(&q, h)
	}
	// Fires shrink the live population.
	for i := 0; i < 120; i++ {
		fire(&q)
	}
	schedule(&q, 1_000_000, nop)
	if bound := 2 * q.Len(); len(q.h) >= 64 && len(q.h) > bound {
		t.Fatalf("heap holds %d slots for %d live events (bound %d)",
			len(q.h), q.Len(), bound)
	}
}

func BenchmarkScheduleFire(b *testing.B) {
	var q Queue
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.SchedulePayload(simtime.Time(rng.Int63n(1<<30)), Payload{})
		if q.Len() > 1024 {
			q.Pop()
		}
	}
	for q.Len() > 0 {
		q.Pop()
	}
}

// BenchmarkKernelMix is the headline kernel blend: per event fired, one standing
// per-PCPU timer moves (Reschedule), one fresh event is admitted
// (Schedule), and the head pops (Pop) — over a population of 256 standing
// handles. EXPERIMENTS.md "Event-kernel rewrite" records this mix before
// and after the intrusive-heap rewrite (the pre-rewrite implementation ran
// the blend as Cancel+Schedule because it had no in-place reschedule).
func BenchmarkKernelMix(b *testing.B) {
	var q Queue
	rng := rand.New(rand.NewSource(1))
	standing := make([]Handle, 256)
	for i := range standing {
		standing[i] = q.SchedulePayload(simtime.Time(1_000_000+i), Payload{})
	}
	now := simtime.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(standing)
		standing[k] = q.Reschedule(standing[k], now+1_000_000+simtime.Time(rng.Int63n(1_000_000)))
		q.SchedulePayload(now+1, Payload{})
		q.Pop()
		now++
	}
}

// BenchmarkKernelMixTimer is the timer-heavy variant: four standing timers
// move per fresh admission and fire, the shape of a multi-PCPU host where
// every dispatch re-arms Kick and VCPURecheck events on several PCPUs.
func BenchmarkKernelMixTimer(b *testing.B) {
	var q Queue
	rng := rand.New(rand.NewSource(2))
	standing := make([]Handle, 256)
	for i := range standing {
		standing[i] = q.SchedulePayload(simtime.Time(1_000_000+i), Payload{})
	}
	now := simtime.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 4; j++ {
			k := (i*4 + j) % len(standing)
			standing[k] = q.Reschedule(standing[k], now+1_000_000+simtime.Time(rng.Int63n(1_000_000)))
		}
		q.SchedulePayload(now+1, Payload{})
		q.Pop()
		now++
	}
}

// BenchmarkKernelMixChurn is the churn-heavy variant: short-lived events
// are admitted, sometimes cancelled, and popped in quick succession — the
// shape of a job-arrival burst where wakeups are created and consumed
// faster than any standing timer moves. This stresses the insert/remove
// sifts rather than reschedule.
func BenchmarkKernelMixChurn(b *testing.B) {
	var q Queue
	rng := rand.New(rand.NewSource(3))
	var pending [64]Handle
	now := simtime.Time(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(pending)
		q.Cancel(pending[k]) // often a stale handle: the no-op cancel path
		pending[k] = q.SchedulePayload(now+simtime.Time(rng.Int63n(4096)), Payload{})
		q.SchedulePayload(now+1, Payload{})
		q.Pop()
		q.Pop()
		now++
	}
	b.StopTimer()
	for q.Len() > 0 {
		q.Pop()
	}
}

// BenchmarkKernelMixAligned is the grid-aligned variant, the shape of the
// Figure 3 and Table 6 worlds: 15 PCPU quantum timers re-arm themselves
// every 1 ms, as RT-Xen's do, and 24 periodic tasks with whole-millisecond
// periods release on the same grid, each release re-arming one PCPU's
// timer. Most pending events share their instant with others, so most pops
// take a chain successor. One op is one fired event.
func BenchmarkKernelMixAligned(b *testing.B) {
	const ms = simtime.Millisecond
	var q Queue
	quantum := make([]Handle, 15)
	for i := range quantum {
		var tick func(now simtime.Time)
		tick = func(now simtime.Time) { quantum[i] = schedule(&q, now.Add(ms), tick) }
		quantum[i] = schedule(&q, simtime.Time(ms), tick)
	}
	periods := []simtime.Duration{2 * ms, 3 * ms, 4 * ms, 5 * ms, 10 * ms, 20 * ms}
	for j := 0; j < 24; j++ {
		period, pcpu := periods[j%len(periods)], j%len(quantum)
		var release func(now simtime.Time)
		release = func(now simtime.Time) {
			quantum[pcpu] = q.Reschedule(quantum[pcpu], now.Add(ms))
			schedule(&q, now.Add(period), release)
		}
		schedule(&q, simtime.Time(period), release)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fire(&q)
	}
}

// BenchmarkCancelReschedule measures the hv.setEvent hot pattern: cancel a
// pending wakeup and schedule a new one. The seed implementation paid a
// heap.Remove plus a fresh allocation per iteration.
func BenchmarkCancelReschedule(b *testing.B) {
	var q Queue
	for i := 0; i < 512; i++ {
		q.SchedulePayload(simtime.Time(1<<40+i), Payload{})
	}
	h := q.SchedulePayload(1<<20, Payload{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Cancel(h)
		h = q.SchedulePayload(simtime.Time(1<<20+i%1024), Payload{})
	}
}
