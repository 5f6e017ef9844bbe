package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// BarrierPool is a set of persistent worker goroutines that repeatedly
// execute the same round function, released and re-joined by a
// sense-reversing barrier. It is the executor under the sharded (PDES)
// simulation's conservative window loop, which issues hundreds of
// thousands of very small rounds: there is no per-round channel send,
// no per-round closure, and no sync.WaitGroup churn — one atomic sense
// flip releases every worker, one atomic counter joins them.
//
// The coordinator publishes the round's inputs in plain memory before
// calling Round and reads the results after it returns; the barrier's
// atomics order those accesses (release: plain writes happen-before the
// sense flip each worker observes; join: each worker's plain writes
// happen-before its arrival decrement the coordinator observes).
type BarrierPool struct {
	n  int
	fn func(worker int)

	// sense is the generalized sense flag: it increments once per round,
	// and a worker knows it has been released when the value differs from
	// the one it last observed. A counter instead of a boolean keeps the
	// comparison trivially correct even if a worker ever slept through a
	// round boundary.
	sense atomic.Uint32
	// pending counts workers that have not yet finished the current round.
	pending atomic.Int32
	closed  atomic.Bool

	// relMu/relCond park workers that outspun the release fast path;
	// joinMu/joinCond park the coordinator waiting for the last arrival.
	relMu    sync.Mutex
	relCond  *sync.Cond
	joinMu   sync.Mutex
	joinCond *sync.Cond

	mu     sync.Mutex
	panics []poolPanic

	wg sync.WaitGroup
}

// poolPanic is a panic recovered from one worker's round, held until the
// round has joined so the coordinator can re-raise it.
type poolPanic struct {
	worker int
	value  any
}

// barrierSpin bounds the busy-wait at each barrier edge before a
// participant parks on its condition variable. Rounds in the window loop
// are typically a few microseconds, so an active peer almost always
// arrives within the spin; the park path exists for idle stretches and
// oversubscribed machines.
const barrierSpin = 256

// NewBarrierPool starts n parked workers that each run fn(worker) once
// per Round. Close releases them.
func NewBarrierPool(n int, fn func(worker int)) *BarrierPool {
	if n < 1 {
		n = 1
	}
	bp := &BarrierPool{n: n, fn: fn}
	bp.relCond = sync.NewCond(&bp.relMu)
	bp.joinCond = sync.NewCond(&bp.joinMu)
	bp.wg.Add(n)
	for w := 0; w < n; w++ {
		go bp.worker(w)
	}
	return bp
}

// Size reports the number of workers.
func (bp *BarrierPool) Size() int { return bp.n }

// Round releases every worker for one execution of fn, runs local (the
// coordinator's own share of the round; nil to contribute nothing) on the
// calling goroutine, and blocks until all workers have finished. A panic
// inside any worker is re-raised here after the round has fully drained,
// lowest worker first, so the coordinator fails deterministically instead
// of deadlocking; a panic in local propagates only after the workers have
// been joined, for the same reason.
func (bp *BarrierPool) Round(local func()) {
	bp.pending.Store(int32(bp.n))
	bp.release()
	if local != nil {
		func() {
			defer bp.join()
			local()
		}()
	} else {
		bp.join()
	}
	bp.rethrow()
}

// release flips the sense, waking every worker into the next round.
func (bp *BarrierPool) release() {
	bp.relMu.Lock()
	bp.sense.Add(1)
	bp.relCond.Broadcast()
	bp.relMu.Unlock()
}

// join blocks until every worker has arrived at the end of the round.
func (bp *BarrierPool) join() {
	for i := 0; i < barrierSpin; i++ {
		if bp.pending.Load() == 0 {
			return
		}
		if i%16 == 15 {
			runtime.Gosched()
		}
	}
	bp.joinMu.Lock()
	for bp.pending.Load() != 0 {
		bp.joinCond.Wait()
	}
	bp.joinMu.Unlock()
}

// rethrow re-raises the round's first recorded worker panic.
func (bp *BarrierPool) rethrow() {
	bp.mu.Lock()
	panics := bp.panics
	bp.panics = nil
	bp.mu.Unlock()
	if len(panics) == 0 {
		return
	}
	first := panics[0]
	for _, pp := range panics[1:] {
		if pp.worker < first.worker {
			first = pp
		}
	}
	panic(fmt.Sprintf("runner: barrier worker %d panicked: %v", first.worker, first.value))
}

func (bp *BarrierPool) worker(w int) {
	defer bp.wg.Done()
	seen := uint32(0)
	for {
		seen = bp.awaitSense(seen)
		if bp.closed.Load() {
			return
		}
		bp.runRound(w)
		if bp.pending.Add(-1) == 0 {
			bp.joinMu.Lock()
			bp.joinCond.Broadcast()
			bp.joinMu.Unlock()
		}
	}
}

// runRound executes one round's share, converting a panic into a recorded
// entry so the worker still arrives at the barrier and Round can re-raise.
func (bp *BarrierPool) runRound(w int) {
	defer func() {
		if r := recover(); r != nil {
			bp.mu.Lock()
			bp.panics = append(bp.panics, poolPanic{worker: w, value: r})
			bp.mu.Unlock()
		}
	}()
	bp.fn(w)
}

// awaitSense waits for the sense flag to move past the last value this
// worker observed: a bounded spin, then a park on the release cond.
func (bp *BarrierPool) awaitSense(seen uint32) uint32 {
	for i := 0; i < barrierSpin; i++ {
		if s := bp.sense.Load(); s != seen {
			return s
		}
		if i%16 == 15 {
			runtime.Gosched()
		}
	}
	bp.relMu.Lock()
	for bp.sense.Load() == seen {
		bp.relCond.Wait()
	}
	s := bp.sense.Load()
	bp.relMu.Unlock()
	return s
}

// Close releases the workers for good. The pool must be idle (no Round in
// flight); Close blocks until every worker goroutine has exited.
func (bp *BarrierPool) Close() {
	bp.closed.Store(true)
	bp.release()
	bp.wg.Wait()
}
