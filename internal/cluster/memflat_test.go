package cluster

import (
	"runtime"
	"runtime/debug"
	"testing"

	"rtvirt/internal/simtime"
)

// recorderBlockBytes is the largest block a latency recorder opens by
// itself: 1024 samples of 4 B (metrics.maxBlock).
const recorderBlockBytes = 4 << 10

// rackSlackBytes is the fixed allowance for the rest of the run phase:
// the recorders' block lists and the runtime's own bookkeeping.
const rackSlackBytes = 64 << 10

// TestMemoryFlatRackWorld bounds the cluster's run-phase allocation by
// what the recorded latencies need. On the 8-host rack world, after a
// first span has run every migration and grown every queue, mailbox and
// pool, a second equal span may allocate only latency-recorder blocks:
// 4 B per sample recorded in that span, plus one part-filled block per
// recorder that recorded any (every other block a span opens is full of
// its samples), plus a fixed slack. CI runs it with the zero-alloc guards.
func TestMemoryFlatRackWorld(t *testing.T) {
	c := buildRackWorld(t, false)
	span := simtime.Second
	c.Start()
	c.Run(span)
	counts := func() []int {
		var n []int
		for _, d := range c.Deployments() {
			for i := range d.Tasks() {
				n = append(n, d.Latency(i).Count())
			}
		}
		return n
	}
	before := counts()
	// One P, as in experiments.mallocsDuring: no OS thread is started
	// (and its records allocated) when ReadMemStats restarts the world.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	debug.FreeOSMemory()
	runtime.ReadMemStats(&m0)
	c.Run(span)
	runtime.ReadMemStats(&m1)
	after := counts()
	samples, recording := 0, 0
	for i := range after {
		if d := after[i] - before[i]; d > 0 {
			samples += d
			recording++
		}
	}
	alloc := m1.TotalAlloc - m0.TotalAlloc
	bound := uint64(4*samples + recording*recorderBlockBytes + rackSlackBytes)
	t.Logf("second %v: %d samples in %d recorders, %d B allocated (bound %d B)",
		span, samples, recording, alloc, bound)
	if samples < 10000 {
		t.Fatalf("only %d samples in the second span; the world did not run", samples)
	}
	if alloc > bound {
		t.Fatalf("second %v allocated %d B, want at most %d B (4 B × %d samples + %d recorders' open blocks + %d B slack)",
			span, alloc, bound, samples, recording, rackSlackBytes)
	}
}
