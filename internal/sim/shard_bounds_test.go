package sim

import (
	"slices"
	"testing"

	"rtvirt/internal/clone"
	"rtvirt/internal/simtime"
)

// meshNode is the declared-topology fixture's handler: it ticks a fixed
// number of times, sends a message on every other tick on average to a
// random out-neighbour at that edge's lookahead plus jitter, and relays
// each message it receives while the message's hop budget (Arg) lasts,
// so traffic travels multi-hop walks. Every event first runs the world's
// check.
type meshNode struct {
	w     *meshWorld
	sh    *Shard
	outs  []*Shard
	id    int32
	ticks int
	hash  uint64
	recvd int
}

const (
	evMeshTick uint16 = iota
	evMeshMsg
)

func (n *meshNode) HandleSimEvent(now simtime.Time, ev Payload) {
	if n.w.check != nil {
		n.w.check()
	}
	n.hash = (n.hash ^ uint64(now) ^ uint64(ev.Kind)<<56) * 1099511628211
	switch ev.Kind {
	case evMeshTick:
		// Silent ticks advance a shard without mailing its downstream, so
		// only the candidate closure can wake a blocked neighbour.
		if n.sh.Sim().RNG().Intn(2) == 0 {
			n.send(now, n.w.hops)
		}
		if n.ticks--; n.ticks > 0 {
			gap := simtime.Micros(20 + n.sh.Sim().RNG().Int63n(100))
			n.sh.Sim().PostAfter(gap, Payload{Handler: n.id, Kind: evMeshTick})
		}
	case evMeshMsg:
		n.recvd++
		n.hash = (n.hash ^ uint64(ev.Owner)) * 1099511628211
		if ev.Arg > 0 {
			n.send(now, ev.Arg-1)
		}
	default:
		panic("meshNode: unknown kind")
	}
}

func (n *meshNode) send(now simtime.Time, hops int64) {
	if len(n.outs) == 0 {
		return
	}
	rng := n.sh.Sim().RNG()
	to := n.outs[rng.Intn(len(n.outs))]
	at := now.Add(n.sh.set.EdgeLookahead(n.sh.ID(), to.ID()) + simtime.Duration(rng.Int63n(int64(simtime.Micros(40)))))
	// Every shard registers exactly one meshNode, so its handler ID is 0.
	n.sh.PostRemote(to, at, Payload{Handler: 0, Kind: evMeshMsg, Owner: int32(n.sh.ID()), Arg: hops})
}

func (n *meshNode) ForkHandler(*clone.Ctx) Handler { panic("meshNode: not forkable") }

type meshEdge struct {
	from, to int
	l        simtime.Duration
}

type meshWorld struct {
	set   *ShardSet
	nodes []*meshNode
	edges []meshEdge
	hops  int64
	check func()
}

// buildMeshWorld declares edges over n shards; shard i starts ticking at
// 0 when ticks(i) > 0 and stays idle until mailed otherwise.
func buildMeshWorld(seed uint64, n int, edges []meshEdge, ticks func(i int) int, hops int64) *meshWorld {
	set := NewShardSet()
	w := &meshWorld{set: set, edges: edges, hops: hops}
	for i := 0; i < n; i++ {
		set.NewShard(seed + uint64(i)*0x9e3779b97f4a7c15)
	}
	for _, e := range edges {
		set.SetEdgeLookahead(e.from, e.to, e.l)
	}
	for i, sh := range set.Shards() {
		nd := &meshNode{w: w, sh: sh, ticks: ticks(i), hash: 14695981039346656037}
		for _, e := range edges {
			if e.from == i {
				nd.outs = append(nd.outs, set.Shards()[e.to])
			}
		}
		nd.id = sh.Sim().RegisterHandler(nd)
		if nd.ticks > 0 {
			sh.Sim().PostAt(0, Payload{Handler: nd.id, Kind: evMeshTick})
		}
		w.nodes = append(w.nodes, nd)
	}
	return w
}

func (w *meshWorld) digest() []uint64 {
	out := make([]uint64, 0, 2*len(w.nodes)+2)
	for _, n := range w.nodes {
		out = append(out, n.hash, uint64(n.recvd))
	}
	return append(out, w.set.EventsFired(), uint64(w.set.Now()))
}

// fold hashes a digest to one value a test can pin.
func fold(d []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range d {
		h = (h ^ v) * 1099511628211
	}
	return h
}

// rackDelay is the 64-host cluster's link delay: 120/180/260µs for the
// same, an adjacent, or a farther rack of eight hosts.
func rackDelay(src, dst int) simtime.Duration {
	switch d := src/8 - dst/8; {
	case d == 0:
		return simtime.Micros(120)
	case d == 1 || d == -1:
		return simtime.Micros(180)
	default:
		return simtime.Micros(260)
	}
}

// rackRingEdges is the rack cluster's client ring: hosts h+1 and h+2 send
// to host h, so the closure reaches every shard.
func rackRingEdges(n int) []meshEdge {
	var edges []meshEdge
	for h := 0; h < n; h++ {
		for _, src := range []int{(h + 1) % n, (h + 2) % n} {
			edges = append(edges, meshEdge{from: src, to: h, l: rackDelay(src, h)})
		}
	}
	return edges
}

// walkDistances is the brute-force reference: the full Floyd–Warshall
// min-plus matrix over the declared edges, d[j*n+i] = D(j,i), with the
// diagonal the shortest cycle and Infinite where no walk exists.
func walkDistances(n int, edges []meshEdge) []simtime.Duration {
	d := make([]simtime.Duration, n*n)
	for i := range d {
		d[i] = simtime.Infinite
	}
	for _, e := range edges {
		d[e.from*n+e.to] = min(d[e.from*n+e.to], e.l)
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d[i*n+k] != simtime.Infinite && d[k*n+j] != simtime.Infinite {
					d[i*n+j] = min(d[i*n+j], d[i*n+k]+d[k*n+j])
				}
			}
		}
	}
	return d
}

// checkBounds installs the differential check for a run to end: at the
// first event of every window the active set and bounds selectWindow
// chose must equal the brute force over all shards, B_i = min_j t_j +
// D(j,i), active iff t_i ≤ end and t_i < B_i. It returns the count of
// windows checked.
func (w *meshWorld) checkBounds(t *testing.T, end simtime.Time) *uint64 {
	ss := w.set
	n := len(ss.shards)
	dist := walkDistances(n, w.edges)
	var checked uint64
	seen := ss.windows
	var want []int32
	w.check = func() {
		if ss.windows == seen {
			return
		}
		seen = ss.windows
		checked++
		keys := ss.heap.key
		want = want[:0]
		for i := 0; i < n; i++ {
			b := simtime.Never
			for j := 0; j < n; j++ {
				if d := dist[j*n+i]; d != simtime.Infinite {
					b = min(b, keys[j].Add(d))
				}
			}
			if keys[i] > end || keys[i] >= b {
				continue
			}
			want = append(want, int32(i))
			if !slices.Contains(ss.active, int32(i)) {
				t.Fatalf("window %d: shard %d (t=%v, B=%v) missing from active %v", ss.windows, i, keys[i], b, ss.active)
			}
			if got := ss.bounds[i]; got != b {
				t.Fatalf("window %d: shard %d bound %v, brute force %v", ss.windows, i, got, b)
			}
		}
		if !slices.Equal(ss.active, want) {
			t.Fatalf("window %d: active %v, brute force %v", ss.windows, ss.active, want)
		}
	}
	return &checked
}

// TestShardExplicitBoundsDifferential compares the pruned coordinator —
// candidate closure, the all-reaching short cut and the nearest-first
// early exit — with the brute-force bound in every window, on topologies
// that exercise each: the 64-shard rack ring (every shard reaches every
// shard), a sparse chain with unreachable and isolated shards (B = ∞),
// a full matrix of heterogeneous lookaheads, a ring whose shards sleep on
// far-future timers while mail lands below their keys, and the complete
// graph at one 19µs lookahead (classic global windows). Window counts,
// event counts and digests are pinned to the values a coordinator
// scanning every bound term of every candidate produces; the complete
// graph's are also the values of the former uniform-lookahead protocol,
// which windowed every pair on one global lookahead without declared
// edges.
func TestShardExplicitBoundsDifferential(t *testing.T) {
	all := func(k int) func(int) int { return func(int) int { return k } }
	var hetero []meshEdge
	for from := 0; from < 8; from++ {
		for to := 0; to < 8; to++ {
			if from != to {
				hetero = append(hetero, meshEdge{from, to, pingEdgeLookahead(from, to)})
			}
		}
	}
	cases := []struct {
		name    string
		build   func() *meshWorld
		end     simtime.Time
		windows uint64
		events  uint64
		digest  uint64
	}{
		{"rack-ring-64", func() *meshWorld {
			return buildMeshWorld(1, 64, rackRingEdges(64), all(150), 2)
		}, simtime.Time(simtime.Millis(15)), 78, 23139, 0xada4699b16510a65},
		{"sparse-chain", func() *meshWorld {
			// 0→1→2⇄3 and 4⇄5→6; 7 is isolated and idle. 0 and 7 have no
			// inbound walk (B = ∞), nothing reaches 4 from the first chain.
			edges := []meshEdge{
				{0, 1, simtime.Micros(25)}, {1, 2, simtime.Micros(300)},
				{2, 3, simtime.Micros(70)}, {3, 2, simtime.Micros(90)},
				{4, 5, simtime.Micros(45)}, {5, 4, simtime.Micros(60)}, {5, 6, simtime.Micros(35)},
			}
			return buildMeshWorld(2, 8, edges, func(i int) int {
				if i == 7 {
					return 0
				}
				return 40
			}, 3)
		}, simtime.Time(simtime.Millis(6)), 39, 675, 0x29a42a4eb5a2d897},
		{"heterogeneous-matrix", func() *meshWorld {
			return buildMeshWorld(3, 8, hetero, all(60), 1)
		}, simtime.Time(simtime.Millis(6)), 120, 960, 0xe64ba1cd55d55ccc},
		{"sleepers", func() *meshWorld {
			var edges []meshEdge
			for i := 0; i < 6; i++ {
				edges = append(edges, meshEdge{i, (i + 1) % 6, simtime.Micros(30 + 15*int64(i))})
			}
			w := buildMeshWorld(4, 6, edges, func(i int) int { return 30 * (i % 2) }, 4)
			// Odd shards tick; even shards sleep on one timer far past the
			// mail their upstream sends, so that mail lands below their key.
			for i := 0; i < 6; i += 2 {
				w.nodes[i].ticks = 1
				w.set.Shards()[i].Sim().PostAt(simtime.Time(simtime.Millis(3)), Payload{Handler: w.nodes[i].id, Kind: evMeshTick})
			}
			return w
		}, simtime.Time(simtime.Millis(5)), 29, 298, 0x1db1f2461f0a17e9},
		{"complete-uniform", func() *meshWorld {
			var edges []meshEdge
			for from := 0; from < 8; from++ {
				for to := 0; to < 8; to++ {
					if from != to {
						edges = append(edges, meshEdge{from, to, simtime.Micros(19)})
					}
				}
			}
			return buildMeshWorld(5, 8, edges, all(60), 2)
		}, simtime.Time(simtime.Millis(6)), 197, 1173, 0x14c974097e5b4f8e},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.build()
			checked := w.checkBounds(t, tc.end)
			w.set.RunUntil(tc.end)
			if *checked != w.set.Windows() {
				t.Fatalf("checked %d of %d windows", *checked, w.set.Windows())
			}
			if got, want := w.set.Windows(), tc.windows; got != want {
				t.Errorf("windows %d, want %d", got, want)
			}
			if got, want := w.set.EventsFired(), tc.events; got != want {
				t.Errorf("events %d, want %d", got, want)
			}
			if got, want := fold(w.digest()), tc.digest; got != want {
				t.Errorf("digest %#x, want %#x", got, want)
			}
		})
	}
}
