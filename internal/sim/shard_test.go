package sim

import (
	"strings"
	"testing"

	"rtvirt/internal/clone"
	"rtvirt/internal/simtime"
)

// pinger is a test handler driving deterministic cross-shard traffic: each
// tick does local "work" (folds the clock into a hash), sends a pong to a
// random peer after the network delay, and schedules its next tick from
// the shard's own RNG. The folded hash is a digest of everything that
// matters: event times, order, and payload routing.
type pinger struct {
	sh    *Shard
	peers []*Shard // all shards, self included (skipped when drawn)
	id    int32
	ticks int
	limit int
	hash  uint64
}

const (
	evPingTick uint16 = iota
	evPingPong
)

func (p *pinger) mix(vs ...uint64) {
	for _, v := range vs {
		p.hash = (p.hash ^ v) * 1099511628211
	}
}

func (p *pinger) HandleSimEvent(now simtime.Time, ev Payload) {
	switch ev.Kind {
	case evPingTick:
		p.mix(1, uint64(now))
		if p.ticks++; p.ticks > p.limit {
			return
		}
		rng := p.sh.Sim().RNG()
		// Redraw until we hit a peer (2 shards minimum in these tests).
		to := p.peers[rng.Intn(len(p.peers))]
		for to == p.sh {
			to = p.peers[rng.Intn(len(p.peers))]
		}
		delay := p.sh.set.EdgeLookahead(p.sh.ID(), to.ID()) + simtime.Duration(rng.Int63n(int64(simtime.Micros(40))))
		// Every shard registers exactly one pinger, so the peer's handler
		// ID is 0 on every simulator.
		p.sh.PostRemote(to, now.Add(delay), Payload{
			Handler: 0, Kind: evPingPong, Arg: int64(p.sh.ID()),
		})
		p.sh.Sim().PostAfter(simtime.Micros(10+rng.Int63n(30)), Payload{Handler: p.id, Kind: evPingTick})
	case evPingPong:
		p.mix(2, uint64(now), uint64(ev.Arg))
	default:
		panic("pinger: unknown kind")
	}
}

func (p *pinger) ForkHandler(*clone.Ctx) Handler { panic("pinger: not forkable") }

type pingWorld struct {
	set     *ShardSet
	pingers []*pinger
}

// declareComplete declares every edge between the set's shards at
// lookahead l: the complete graph, whose walk distances are l between
// shards and 2l around a cycle — classic global windows of width l.
func declareComplete(set *ShardSet, l simtime.Duration) {
	for from := range set.Shards() {
		for to := range set.Shards() {
			if from != to {
				set.SetEdgeLookahead(from, to, l)
			}
		}
	}
}

func buildPingWorld(seed uint64, shards int) *pingWorld {
	set := NewShardSet()
	w := &pingWorld{set: set}
	for i := 0; i < shards; i++ {
		set.NewShard(seed + uint64(i)*0x9e3779b97f4a7c15)
	}
	declareComplete(set, simtime.Micros(19))
	for _, sh := range set.Shards() {
		p := &pinger{sh: sh, peers: set.Shards(), limit: 200, hash: 14695981039346656037}
		p.id = sh.Sim().RegisterHandler(p)
		sh.Sim().PostAt(0, Payload{Handler: p.id, Kind: evPingTick})
		w.pingers = append(w.pingers, p)
	}
	return w
}

func (w *pingWorld) digest() []uint64 {
	out := make([]uint64, 0, 2*len(w.pingers)+2)
	for i, p := range w.pingers {
		out = append(out, p.hash, w.set.Shards()[i].Sim().EventsFired())
	}
	return append(out, w.set.EventsFired(), uint64(w.set.Now()))
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardSetResume checks that windowed runs compose: run-to-10ms then
// run-to-20ms equals one run-to-20ms.
func TestShardSetResume(t *testing.T) {
	one := buildPingWorld(3, 4)
	one.set.RunUntil(simtime.Time(simtime.Millis(20)))

	two := buildPingWorld(3, 4)
	two.set.RunUntil(simtime.Time(simtime.Millis(10)))
	two.set.RunUntil(simtime.Time(simtime.Millis(20)))

	if !equalU64(one.digest(), two.digest()) {
		t.Fatalf("split run diverged: %v vs %v", two.digest(), one.digest())
	}
}

func TestPostRemoteLookaheadViolationPanics(t *testing.T) {
	set := NewShardSet()
	a := set.NewShard(1)
	b := set.NewShard(2)
	declareComplete(set, simtime.Micros(19))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("PostRemote below the lookahead bound did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "violates lookahead") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	a.PostRemote(b, simtime.Time(simtime.Micros(18)), Payload{})
}

func TestPostRemoteSelfAndForeignPanic(t *testing.T) {
	set := NewShardSet()
	a := set.NewShard(1)
	other := NewShardSet().NewShard(9)

	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("self-post", func() { a.PostRemote(a, simtime.Time(simtime.Micros(100)), Payload{}) })
	mustPanic("foreign-set post", func() { a.PostRemote(other, simtime.Time(simtime.Micros(100)), Payload{}) })
}

// TestShardIdleShard checks a shard with no events never blocks progress.
func TestShardIdleShard(t *testing.T) {
	set := NewShardSet()
	a := set.NewShard(1)
	_ = set.NewShard(2) // stays empty
	p := &pinger{sh: a, peers: []*Shard{a}, limit: 0, hash: 1}
	p.id = a.Sim().RegisterHandler(p)
	a.Sim().PostAt(0, Payload{Handler: p.id, Kind: evPingTick})
	set.RunUntil(simtime.Time(simtime.Millis(1)))
	if set.EventsFired() != 1 {
		t.Fatalf("fired %d events, want 1", set.EventsFired())
	}
	for _, sh := range set.Shards() {
		if sh.Sim().Now() != simtime.Time(simtime.Millis(1)) {
			t.Fatalf("shard %d clock %v, want 1ms", sh.ID(), sh.Sim().Now())
		}
	}
}
