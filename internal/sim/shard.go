package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"rtvirt/internal/clone"
	"rtvirt/internal/simtime"
)

// This file implements sharded (conservative-PDES) execution: a ShardSet
// holds one Simulator per shard (logical process — in the cluster model,
// one per host), and advances them concurrently in lookahead windows.
//
// The synchronization protocol is classic conservative null-message-free
// windowing, generalized to a per-edge lookahead matrix (distance-matrix
// synchronization). Every declared directed edge (j→i) has a lookahead
// L(j→i): a message emitted by j at local time t arrives no earlier than
// t + L(j→i), and PostRemote enforces exactly that edge's bound. Let
// D(j,i) be the min-plus shortest-walk distance from j to i over the edge
// lookaheads — with the diagonal D(i,i) the shortest cycle through i, NOT
// zero, since a walk must use at least one edge. Each barrier round,
// shard i may fire its events strictly below its window bound
//
//	B_i = min over all shards j of  t_j + D(j,i)
//
// where t_j is shard j's earliest pending event time at the barrier.
// Walk distances (not single edges) are what make this safe: an idle
// upstream j can be woken by a message from some k and then relay into i
// earlier than its own t_j suggests — the chain k→j→i is a walk, and its
// arrival is ≥ t_k + D(k,i). The diagonal matters for the same reason:
// i's own output can boomerang back along a cycle, so i may only run
// t_i + D(i,i) ahead of itself. Safety follows by induction on rounds:
// any message ultimately originates from an event that was in some
// shard's queue at the barrier, every hop adds at least its edge's
// lookahead, and B is monotone across barriers (mail lowers t_j only to
// ≥ t_k + D(k,j), and D obeys the triangle inequality, so no min term
// ever drops below a previously-published bound). Progress: the
// globally-earliest shard m always has t_m < B_m (every term is
// ≥ t_m + D > t_m), so every round fires at least one event. Shards that
// nothing reaches — no inbound walk at all — have B = ∞ and run straight
// to the horizon; shards whose upstreams sit far in the future run
// correspondingly far ahead instead of stalling at a global minimum.
//
// The topology is declared: SetEdgeLookahead names every edge that may
// carry messages (PostRemote panics on any other pair), undeclared pairs
// impose no window constraint, and the coordinator prunes its per-round
// work to candidate shards — the previous round's active set, shards
// that just received mail, and the shards reachable from the actives —
// since no other shard's bound or next-time can have changed. When an
// active shard reaches every shard (a ring's closure does), the
// candidates are simply all shards, already in ID order, and the closure
// is skipped. A caller that wants classic global windows declares the
// complete graph at one lookahead L: then D(j,i) = L off-diagonal and
// D(i,i) = 2L, so B_i is T + L for every shard but the earliest, whose
// bound is min(second + L, T + 2L) (T = global min, second = min over
// the rest).
//
// Coordinator costs follow the near edges, not the n² shard pairs: shard
// next-times live in a 4-ary min-heap (shardHeap), so termination and
// window selection are O(active·log n); each shard's bound terms are
// sorted by walk distance, so its scan stops at the first term that even
// the globally-earliest next-time cannot bring below the running min; the
// barrier drain posts each sender's outbox straight into its targets,
// with no sort; and multi-group execution hands each window's shares
// to persistent executor goroutines over one unbuffered channel, which
// allocates nothing per window.
//
// Determinism does not depend on how shards are grouped onto executors:
// each shard's intra-window execution is single-threaded on its own
// queue, window bounds are computed by the coordinator as a pure function
// of the global event population, and the barrier drain posts the
// senders' outboxes in ascending shard ID, each in emission order, so
// every target assigns fresh seqs to its same-instant messages in
// (source shard, emission) order. Runs with 1, 2, 4, or
// 8 executor groups are therefore bit-identical — the golden the sharded
// cluster tests pin.

// Shard is one logical process of a sharded simulation: its own Simulator
// (clock, queue, RNG, handlers) plus an outbox of cross-shard messages
// awaiting the next barrier.
type Shard struct {
	id  int
	set *ShardSet
	sim *Simulator

	outbox []remoteMsg // in emission order
	// edgeL[to] is the declared lookahead of the (this shard → to) edge,
	// or 0 if there is none.
	edgeL []simtime.Duration
}

// remoteMsg is one buffered cross-shard message.
type remoteMsg struct {
	at simtime.Time
	to int32
	p  Payload
}

// edgeRef is one term of a shard's window-bound min in the sealed
// reachability lists: a source shard and the min-plus walk distance from
// it (for the diagonal term, the shortest cycle back to the shard).
// Each list is sorted by (l, src), nearest first.
type edgeRef struct {
	src int32
	l   simtime.Duration
}

// satAddDur adds two walk distances, saturating at Infinite.
func satAddDur(a, b simtime.Duration) simtime.Duration {
	if a == simtime.Infinite || b == simtime.Infinite {
		return simtime.Infinite
	}
	if s := a + b; s >= a {
		return s
	}
	return simtime.Infinite
}

// ShardSet owns the shards of one sharded simulation and coordinates
// their windowed execution.
type ShardSet struct {
	shards []*Shard

	windows uint64
	inRun   bool

	// Per-run coordinator state, rebuilt by RunUntil and reused across
	// windows. All of it is written by the coordinator between barriers;
	// executors only read active/bounds/curEnd/curGroups during a round.
	heap      shardHeap
	keys      []simtime.Time // heap key storage, indexed by shard ID
	bounds    []simtime.Time // per-shard window bound, indexed by shard ID
	inbound   [][]edgeRef    // sealed adjacency
	outbound  [][]int32
	allIDs    []int32
	active    []int32  // this round's active shards, ID order
	actPrev   []int32  // previous round's active shards, ID order: the drain's senders
	cand      []int32  // candidate scratch
	candEpoch []uint64 // epoch stamps: candidate or mailed in the current pass
	epoch     uint64
	mailed    []int32 // shards that received mail in the last drain, first seen first
	curEnd    simtime.Time
	curGroups int
}

// NewShardSet creates an empty shard set with no edges: until
// SetEdgeLookahead declares some, no shard may post to another and every
// shard runs straight to the horizon.
func NewShardSet() *ShardSet { return &ShardSet{} }

// SetEdgeLookahead declares the directed edge from→to with lookahead d:
// every PostRemote on that edge must arrive at least d after the sender's
// clock. Redeclaring an edge overwrites its lookahead.
func (ss *ShardSet) SetEdgeLookahead(from, to int, d simtime.Duration) {
	if ss.inRun {
		panic("sim: SetEdgeLookahead during RunUntil")
	}
	if d <= 0 {
		panic(fmt.Sprintf("sim: edge lookahead must be positive, got %v for edge %d->%d", d, from, to))
	}
	if from < 0 || from >= len(ss.shards) {
		panic(fmt.Sprintf("sim: SetEdgeLookahead from unknown shard %d (have %d shards)", from, len(ss.shards)))
	}
	if to < 0 || to >= len(ss.shards) {
		panic(fmt.Sprintf("sim: SetEdgeLookahead to unknown shard %d (have %d shards)", to, len(ss.shards)))
	}
	if from == to {
		panic(fmt.Sprintf("sim: SetEdgeLookahead self-edge %d->%d (local work uses PostAt and needs no lookahead)", from, to))
	}
	ss.shards[from].edgeL[to] = d
}

// EdgeLookahead reports the lookahead PostRemote enforces on from→to: the
// declared value, or 0 if the edge does not exist.
func (ss *ShardSet) EdgeLookahead(from, to int) simtime.Duration {
	if from < 0 || from >= len(ss.shards) || to < 0 || to >= len(ss.shards) {
		return 0
	}
	return ss.shards[from].edgeL[to]
}

// NewShard adds a shard running on a fresh Simulator seeded with seed.
// Shards must all be added before the first Run; their creation order
// defines their IDs.
func (ss *ShardSet) NewShard(seed uint64) *Shard {
	if ss.inRun {
		panic("sim: NewShard during RunUntil")
	}
	sh := &Shard{id: len(ss.shards), set: ss, sim: New(seed)}
	ss.shards = append(ss.shards, sh)
	for _, s := range ss.shards {
		for len(s.edgeL) < len(ss.shards) {
			s.edgeL = append(s.edgeL, 0)
		}
	}
	return sh
}

// Shards returns the shards in ID order.
func (ss *ShardSet) Shards() []*Shard { return ss.shards }

// Windows reports how many conservative windows have executed.
func (ss *ShardSet) Windows() uint64 { return ss.windows }

// EventsFired sums the event counters across shards.
func (ss *ShardSet) EventsFired() uint64 {
	var n uint64
	for _, sh := range ss.shards {
		n += sh.sim.EventsFired()
	}
	return n
}

// Now reports the earliest shard clock — the global simulation time.
func (ss *ShardSet) Now() simtime.Time {
	if len(ss.shards) == 0 {
		return 0
	}
	min := ss.shards[0].sim.Now()
	for _, sh := range ss.shards[1:] {
		if t := sh.sim.Now(); t < min {
			min = t
		}
	}
	return min
}

// ID reports the shard's position in its set.
func (sh *Shard) ID() int { return sh.id }

// Sim exposes the shard's simulator. Handlers running on it may touch
// only state owned by this shard; anything cross-shard goes through
// PostRemote.
func (sh *Shard) Sim() *Simulator { return sh.sim }

// PostRemote buffers a typed event for delivery into another shard's
// queue at the absolute instant at. The arrival must respect the edge's
// lookahead (at ≥ now + L(this→to)): that bound is exactly what lets the
// target shard run its window without waiting for this one. The edge
// must have been declared — undeclared pairs are non-edges the window
// bounds ignore, so a message on one could rewind the target. Messages
// are held in the sender's outbox and delivered into the target queue at
// the next barrier, in an order independent of executor grouping.
// Posting to the shard itself panics — local work uses PostAt and needs
// no lookahead.
func (sh *Shard) PostRemote(to *Shard, at simtime.Time, p Payload) {
	if to == nil || to.set != sh.set {
		panic("sim: PostRemote to a shard of a different set")
	}
	if to == sh {
		panic("sim: PostRemote to own shard (use PostAt)")
	}
	l := sh.edgeL[to.id]
	if l == 0 {
		panic(fmt.Sprintf("sim: PostRemote on undeclared edge %d->%d (declare its lookahead with SetEdgeLookahead)",
			sh.id, to.id))
	}
	if min := sh.sim.Now().Add(l); at < min {
		panic(fmt.Sprintf("sim: PostRemote at %v violates lookahead %v on edge %d->%d (now %v, earliest legal %v)",
			at, l, sh.id, to.id, sh.sim.Now(), min))
	}
	sh.outbox = append(sh.outbox, remoteMsg{at: at, to: int32(to.id), p: p})
}

// drainFrom delivers the pending outboxes of senders, which are in
// ascending ID order, straight into their targets' queues. Only the order
// of same-instant deliveries into one target queue is observable — it
// assigns that queue's fresh seqs — and posting sender by sender, each
// outbox in emission order, gives every target its same-instant messages
// in (source shard, emission) order. That order depends only on
// simulation state, so delivery is identical however the previous
// window's shards were grouped. Mailed targets are stamped with the
// coordinator's epoch, so mailed lists each once, first seen first.
// Outboxes are zeroed after delivery so delivered payloads don't linger
// reachable between windows of a long run.
func (ss *ShardSet) drainFrom(senders []int32) {
	ss.mailed = ss.mailed[:0]
	ss.epoch++
	for _, id := range senders {
		sh := ss.shards[id]
		for _, m := range sh.outbox {
			if ss.candEpoch[m.to] != ss.epoch {
				ss.candEpoch[m.to] = ss.epoch
				ss.mailed = append(ss.mailed, m.to)
			}
			ss.shards[m.to].sim.PostAt(m.at, m.p)
		}
		clear(sh.outbox)
		sh.outbox = sh.outbox[:0]
	}
}

// execWindow runs executor group g's share of the current window: every
// curGroups-th shard of the active list, each up to its own bound. Active
// shards are disjoint across groups, so the only shared state is
// read-only.
func (ss *ShardSet) execWindow(g int) {
	for k := g; k < len(ss.active); k += ss.curGroups {
		id := ss.active[k]
		ss.shards[id].sim.runWindow(ss.bounds[id], ss.curEnd)
	}
}

// shareResult reports one executor group's share of a window: the value
// its execWindow panicked with, or nil.
type shareResult struct {
	group int
	value any
}

// executor runs the shares the coordinator sends on start until start is
// closed, answering each on done. A panic is recovered and sent back, so
// the executor stays alive and the coordinator still joins every group.
func (ss *ShardSet) executor(start <-chan int, done chan<- shareResult, exited *sync.WaitGroup) {
	defer exited.Done()
	for g := range start {
		done <- shareResult{group: g, value: ss.runShare(g)}
	}
}

// runShare runs group g's share of the window and returns what it
// panicked with, or nil.
func (ss *ShardSet) runShare(g int) (value any) {
	defer func() { value = recover() }()
	ss.execWindow(g)
	return nil
}

// execShares runs one window on groups executor groups: it sends shares
// 1..groups-1 to the executors, runs share 0 itself, and joins one result
// per share. The channel operations order the window's plain memory: the
// coordinator's writes happen before each executor's receive, and each
// executor's writes happen before the coordinator's receive of its
// result. Every group finishes the window before any panic propagates;
// the lowest group's panic wins, so share 0's own panic propagates
// unchanged once the others have joined.
func (ss *ShardSet) execShares(groups int, start chan<- int, done <-chan shareResult) {
	for g := 1; g < groups; g++ {
		start <- g
	}
	var first shareResult
	func() {
		defer func() {
			for g := 1; g < groups; g++ {
				r := <-done
				if r.value != nil && (first.value == nil || r.group < first.group) {
					first = r
				}
			}
		}()
		ss.execWindow(0)
	}()
	if first.value != nil {
		panic(fmt.Sprintf("sim: executor group %d panicked: %v", first.group, first.value))
	}
}

// sealTopology turns the declared edges into the min-plus shortest-walk
// distance matrix (Floyd–Warshall; the diagonal starts at ∞, so D(i,i)
// converges to the shortest cycle through i, never zero) and flattens it
// into per-shard reachability lists: inbound[i] holds every (j, D(j,i))
// with a finite distance — the terms of i's window-bound min, nearest
// first — and outbound[j] every i reachable from j, in ID order — the
// shards whose bounds can grow when j fires. Deterministic. O(n³) once
// per run; at the simulator's host counts (tens to hundreds of shards)
// this is noise next to a single window.
func (ss *ShardSet) sealTopology() {
	n := len(ss.shards)
	d := make([]simtime.Duration, n*n)
	for i := range d {
		d[i] = simtime.Infinite
	}
	for from, sh := range ss.shards {
		for to, l := range sh.edgeL {
			if l > 0 {
				d[from*n+to] = l
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := d[i*n+k]
			if dik == simtime.Infinite {
				continue
			}
			for j := 0; j < n; j++ {
				if via := satAddDur(dik, d[k*n+j]); via < d[i*n+j] {
					d[i*n+j] = via
				}
			}
		}
	}
	ss.inbound = make([][]edgeRef, n)
	ss.outbound = make([][]int32, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if dist := d[j*n+i]; dist != simtime.Infinite {
				ss.inbound[i] = append(ss.inbound[i], edgeRef{src: int32(j), l: dist})
				ss.outbound[j] = append(ss.outbound[j], int32(i))
			}
		}
	}
	for _, in := range ss.inbound {
		slices.SortFunc(in, func(a, b edgeRef) int {
			if c := cmp.Compare(a.l, b.l); c != 0 {
				return c
			}
			return cmp.Compare(a.src, b.src)
		})
	}
}

// selectWindow picks the active shards and bounds for one window. Only
// candidate shards are examined: the previous round's actives (their
// next-times advanced), shards that just received mail (their next-times
// may have moved up), and shards reachable from the actives (a bound
// term t_j + D(j,i) can only grow when j fires).
// Any other shard kept both its next-time and its bound, so if it was
// inactive it still is. When an active shard reaches every shard the
// candidates are all shards, and the closure is skipped.
//
// Each bound scan walks i's terms nearest first and stops at the first
// term with tmin + D ≥ b (tmin the global minimum next-time): every later
// term has t_j ≥ tmin and D at least as large, so none can lower b.
func (ss *ShardSet) selectWindow(first bool, end simtime.Time) {
	cand := ss.allIDs
	if !first && !slices.ContainsFunc(ss.actPrev, func(id int32) bool {
		return len(ss.outbound[id]) == len(ss.shards)
	}) {
		ss.epoch++
		c := ss.cand[:0]
		add := func(id int32) {
			if ss.candEpoch[id] != ss.epoch {
				ss.candEpoch[id] = ss.epoch
				c = append(c, id)
			}
		}
		for _, id := range ss.actPrev {
			add(id)
			for _, nb := range ss.outbound[id] {
				add(nb)
			}
		}
		for _, id := range ss.mailed {
			add(id)
		}
		slices.Sort(c)
		ss.cand = c // never allIDs: the next round appends into ss.cand
		cand = c
	}

	tmin := ss.heap.min()
	ss.active = ss.active[:0]
	for _, id := range cand {
		t := ss.heap.keyOf(id)
		if t > end {
			continue
		}
		b := simtime.Never
		for _, e := range ss.inbound[id] {
			if tmin.Add(e.l) >= b {
				break
			}
			if x := ss.heap.keyOf(e.src).Add(e.l); x < b {
				b = x
			}
		}
		if t >= b {
			continue
		}
		ss.bounds[id] = b
		ss.active = append(ss.active, id)
	}
}

// RunUntil advances every shard to end under conservative windowed
// synchronization, using up to groups concurrent executors (1 = fully
// sequential, same results). Shards are assigned to executors round-robin
// over the active list; the assignment is pure bookkeeping — outputs are
// bit-identical for every group count.
func (ss *ShardSet) RunUntil(end simtime.Time, groups int) {
	if len(ss.shards) == 0 {
		return
	}
	if ss.inRun {
		panic("sim: ShardSet.RunUntil re-entered")
	}
	ss.inRun = true
	defer func() { ss.inRun = false }()

	if groups < 1 {
		groups = 1
	}
	if groups > len(ss.shards) {
		groups = len(ss.shards)
	}
	n := len(ss.shards)
	ss.curEnd = end
	ss.curGroups = groups
	if cap(ss.keys) < n {
		ss.keys = make([]simtime.Time, n)
		ss.bounds = make([]simtime.Time, n)
		ss.allIDs = make([]int32, n)
		ss.candEpoch = make([]uint64, n)
	}
	ss.keys = ss.keys[:n]
	ss.bounds = ss.bounds[:n]
	ss.allIDs = ss.allIDs[:n]
	ss.candEpoch = ss.candEpoch[:n]
	for i := range ss.allIDs {
		ss.allIDs[i] = int32(i)
	}
	ss.sealTopology()

	var start chan int
	var done chan shareResult
	if groups > 1 {
		start = make(chan int)
		done = make(chan shareResult)
		var exited sync.WaitGroup
		exited.Add(groups - 1)
		for i := 1; i < groups; i++ {
			go ss.executor(start, done, &exited)
		}
		defer func() {
			close(start)
			exited.Wait()
		}()
	}

	// Deliver anything buffered before the run, then index the next-times.
	ss.drainFrom(ss.allIDs)
	for i, sh := range ss.shards {
		ss.keys[i] = sh.sim.q.PeekTime()
	}
	ss.heap.init(ss.keys)

	first := true
	for {
		if ss.heap.min() > end {
			break
		}
		ss.selectWindow(first, end)
		first = false
		if len(ss.active) == 0 {
			// Unreachable if the candidate bookkeeping is right: the
			// globally-earliest shard always sits below its bound.
			panic("sim: shard window stalled with pending events")
		}
		ss.windows++

		switch {
		case len(ss.active) == 1:
			id := ss.active[0]
			ss.shards[id].sim.runWindow(ss.bounds[id], end)
		case groups == 1:
			ss.execWindow(0)
		default:
			ss.execShares(groups, start, done)
		}

		for _, id := range ss.active {
			ss.heap.update(id, ss.shards[id].sim.q.PeekTime())
		}
		// This round's actives are the only shards with pending outboxes
		// (and next round's actPrev).
		ss.active, ss.actPrev = ss.actPrev, ss.active
		ss.drainFrom(ss.actPrev)
		for _, id := range ss.mailed {
			ss.heap.update(id, ss.shards[id].sim.q.PeekTime())
		}
	}

	// All queues are past end (or empty): settle every clock at end, like
	// Simulator.RunUntil does.
	for _, sh := range ss.shards {
		sh.sim.RunUntil(end)
	}
}

// RunFor advances the set by d from its current global time.
func (ss *ShardSet) RunFor(d simtime.Duration, groups int) {
	ss.RunUntil(ss.Now().Add(d), groups)
}

// Fork deep-copies the whole shard set — every shard's simulator, the
// in-flight mailbox messages, and the declared edge-lookahead matrix —
// through one shared clone context, so cross-shard references held by
// handlers (e.g. a cluster agent holding peers' shard pointers) land on
// the forked twins. Shard clones are memoized before any simulator forks,
// mirroring the Put-before-fill rule. Coordinator scratch (heap, bounds,
// candidate sets) is per-run state and is rebuilt by the next RunUntil.
func (ss *ShardSet) Fork(ctx *clone.Ctx) *ShardSet {
	if ss.inRun {
		panic("sim: Fork during RunUntil")
	}
	nss := &ShardSet{windows: ss.windows}
	ctx.Put(ss, nss)
	nss.shards = make([]*Shard, len(ss.shards))
	for i, sh := range ss.shards {
		nsh := &Shard{
			id:    sh.id,
			set:   nss,
			edgeL: append([]simtime.Duration(nil), sh.edgeL...),
		}
		if len(sh.outbox) > 0 {
			nsh.outbox = append([]remoteMsg(nil), sh.outbox...)
		}
		ctx.Put(sh, nsh)
		nss.shards[i] = nsh
	}
	for i, sh := range ss.shards {
		nss.shards[i].sim = sh.sim.Fork(ctx)
	}
	return nss
}
