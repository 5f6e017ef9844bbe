// Package runner executes independent simulation runs on a pool of OS
// threads and collects their results in deterministic input order.
//
// One simulation run (a scenario × scheduler stack × seed) is a
// self-contained unit: it builds its own sim.Simulator, its own event
// queue and its own RNG, and touches no package-level mutable state (the
// run-isolation contract, DESIGN.md §4). That makes the experiment sweeps
// embarrassingly parallel — Figure 3's 6 groups × 2 stacks, the ablation
// points, Robustness' seeds, Table 6's scenarios — and this package is the
// single fan-out primitive they all share.
//
// Results are always delivered in the order the items were submitted, so
// the output of a parallel sweep is bit-for-bit identical to the
// sequential one; only the wall clock differs.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultParallel is the process-wide worker count used when a caller
// passes parallel <= 0. Zero means "use GOMAXPROCS". The CLIs set it from
// their -parallel flag; it is the only knob in the package and it is
// orchestration state, not simulation state, so it does not violate the
// run-isolation contract.
var defaultParallel atomic.Int64

// SetDefault fixes the worker count used when callers pass parallel <= 0.
// n <= 0 restores the GOMAXPROCS default.
func SetDefault(n int) {
	if n < 0 {
		n = 0
	}
	defaultParallel.Store(int64(n))
}

// Default reports the worker count used when callers pass parallel <= 0.
func Default() int {
	if n := defaultParallel.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// Map applies fn to every item on parallel workers (parallel <= 0 means
// Default()) and returns the results in input order. A panic in any item
// is captured and re-raised in the caller after all workers have drained,
// annotated with the item's index.
func Map[T, R any](parallel int, items []T, fn func(T) R) []R {
	out := make([]R, len(items))
	forEach(len(items), parallel, func(i int) { out[i] = fn(items[i]) })
	return out
}

// MapIdx is Map for functions that also want the item's index (e.g. to
// derive a per-run seed).
func MapIdx[T, R any](parallel int, items []T, fn func(int, T) R) []R {
	out := make([]R, len(items))
	forEach(len(items), parallel, func(i int) { out[i] = fn(i, items[i]) })
	return out
}

// MapForked runs a warm-start sweep: every arm starts from the same
// warmed-up base world instead of replaying the shared prefix from scratch.
// fork(i, arm) derives arm i's private world from the base — typically
// with core.System.Fork — and run(i, arm, world)
// executes the arm's divergent tail. Forks happen sequentially on the
// calling goroutine, because deep-forking reads the shared base and
// concurrent forks of the same world would race; the runs then fan out
// like MapIdx. Results come back in arm order.
func MapForked[A, F, R any](parallel int, arms []A, fork func(int, A) F, run func(int, A, F) R) []R {
	forks := make([]F, len(arms))
	for i, a := range arms {
		forks[i] = fork(i, a)
	}
	return MapIdx(parallel, arms, func(i int, a A) R {
		return run(i, a, forks[i])
	})
}

// capturedPanic wraps a worker panic so the caller's re-panic keeps the
// original value visible.
type capturedPanic struct {
	index int
	value any
}

func (c capturedPanic) String() string {
	return fmt.Sprintf("runner: spec %d panicked: %v", c.index, c.value)
}

// forEach runs fn(0..n-1) on min(parallel, n) workers and blocks until
// all complete. parallel == 1 runs inline on the calling goroutine — the
// exact sequential code path, with no scheduling at all.
func forEach(n, parallel int, fn func(i int)) {
	if n == 0 {
		return
	}
	if parallel <= 0 {
		parallel = Default()
	}
	if parallel > n {
		parallel = n
	}
	if parallel == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}

	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panics  []capturedPanic
	)
	worker := func() {
		defer wg.Done()
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						panicMu.Lock()
						panics = append(panics, capturedPanic{index: i, value: r})
						panicMu.Unlock()
					}
				}()
				fn(i)
			}()
		}
	}
	wg.Add(parallel)
	for w := 0; w < parallel; w++ {
		go worker()
	}
	wg.Wait()
	if len(panics) > 0 {
		// Re-raise the lowest-index panic so the failure is deterministic.
		first := panics[0]
		for _, p := range panics[1:] {
			if p.index < first.index {
				first = p
			}
		}
		panic(first.String())
	}
}
