package sim

import (
	"testing"

	"rtvirt/internal/simtime"
)

// TestSteadyStateZeroAlloc pins the allocation-free outbox sort that
// executors run at the end of every window share. CI runs it as a
// zero-alloc guard.
func TestSteadyStateZeroAlloc(t *testing.T) {
	set := NewShardSet(simtime.Micros(19))
	a := set.NewShard(1)
	peers := []*Shard{set.NewShard(2), set.NewShard(3), set.NewShard(4)}
	rng := a.Sim().RNG()
	for i := 0; i < 512; i++ {
		at := simtime.Time(simtime.Micros(19 + rng.Int63n(200)))
		a.PostRemote(peers[rng.Intn(len(peers))], at, Payload{Arg0: int64(i)})
	}
	filled := append([]remoteMsg(nil), a.outbox...)
	n := testing.AllocsPerRun(100, func() {
		copy(a.outbox, filled)
		a.outboxSorted = false
		a.sortOutbox()
	})
	if n != 0 {
		t.Fatalf("sortOutbox allocates %.1f/op, want 0", n)
	}
	for i := 1; i < len(a.outbox); i++ {
		if !msgLess(&a.outbox[i-1], &a.outbox[i]) {
			t.Fatalf("outbox not in msgLess order at %d", i)
		}
	}
}
