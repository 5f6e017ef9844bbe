package sim

import (
	"testing"

	"rtvirt/internal/clone"
	"rtvirt/internal/simtime"
)

// drainRecorder checks, as each delivered message fires, that its target
// sees messages in (arrival time, source shard, edge counter) order —
// what the drain's fresh seqs decide for same-instant arrivals. A message
// carries its source shard in Owner and its edge counter in Arg. It
// records nothing, so the measured round stays allocation-free.
type drainRecorder struct {
	last       [3]int64 // at, from, counter of the previous delivery
	fired      int
	violations int
}

func (r *drainRecorder) HandleSimEvent(now simtime.Time, ev Payload) {
	key := [3]int64{int64(now), int64(ev.Owner), ev.Arg}
	if r.fired > 0 && !(r.last[0] < key[0] ||
		r.last[0] == key[0] && (r.last[1] < key[1] || r.last[1] == key[1] && r.last[2] < key[2])) {
		r.violations++
	}
	r.last = key
	r.fired++
}

func (r *drainRecorder) ForkHandler(*clone.Ctx) Handler { panic("drainRecorder: not forkable") }

// TestSteadyStateZeroAlloc pins the allocation-free barrier drain: several
// shards post to several targets, drainFrom delivers them, and the
// targets fire what they received. CI runs it as a zero-alloc
// guard.
func TestSteadyStateZeroAlloc(t *testing.T) {
	const shards = 6
	l := simtime.Micros(19)
	set := NewShardSet()
	recs := make([]*drainRecorder, shards)
	for i := range recs {
		sh := set.NewShard(uint64(i) + 1)
		recs[i] = &drainRecorder{}
		sh.Sim().RegisterHandler(recs[i])
	}
	declareComplete(set, l)
	set.RunUntil(0) // sizes the coordinator's scratch
	all := set.Shards()
	edge := make([]int64, shards*shards) // per-edge emission counters
	rng := all[0].Sim().RNG()

	round := func() {
		base := all[0].Sim().Now()
		for _, r := range recs {
			r.fired = 0
		}
		for k := 0; k < 48; k++ {
			from, to := all[rng.Intn(shards)], all[rng.Intn(shards)]
			if from == to {
				continue
			}
			// Four arrival instants, so most targets see ties that only
			// the source shard or the edge counter can break.
			at := base.Add(l + simtime.Micros(rng.Int63n(4)))
			edge[from.ID()*shards+to.ID()]++
			from.PostRemote(to, at, Payload{Owner: int32(from.ID()), Arg: edge[from.ID()*shards+to.ID()]})
		}
		set.drainFrom(set.allIDs)
		for _, sh := range all {
			sh.Sim().RunUntil(base.Add(l + simtime.Micros(4)))
		}
	}
	for i := 0; i < 10; i++ {
		round()
	}
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("drain round allocates %.1f/op, want 0", n)
	}
	fired := 0
	for i, r := range recs {
		if r.violations != 0 {
			t.Fatalf("shard %d: %d deliveries out of (at, from, n) order", i, r.violations)
		}
		fired += r.fired
	}
	if fired == 0 {
		t.Fatal("the last drain round delivered nothing")
	}
}
