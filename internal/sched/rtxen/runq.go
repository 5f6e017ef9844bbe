package rtxen

import (
	"rtvirt/internal/hv"
)

// runq is the global runqueue as RT-Xen publishes it: a list of VCPU IDs
// kept sorted by (deadline, ID). Every admitted RT VCPU with budget appears
// here whether runnable or not.
//
// The published scheduler pays a linear scan per decision, and that cost is
// what Table 6's schedule-time column measures. pickEDF performs exactly
// that scan, so the 1-based rank it returns is the Decision.Work the model
// charges: the number of queue members examined up to and including the
// pick.
//
// Holding IDs instead of *hv.VCPU keeps the scan inside two flat arrays
// (the list and the Scheduler's srv array). Methods take the srv slice (and,
// for pickEDF, the host's hot array) as a parameter rather than a
// back-pointer so the slice header is always the caller's current one.
//
// No server records its own slot, since every move would then rewrite the
// slot of each member it shifts: Fix and Remove find the server by a
// forward scan of the flat ID list. Fix's common caller is a
// replenishment, whose server's old deadline is now, the queue's minimum,
// so it sits among the first members.
type runq struct {
	v []int32
}

// rqLess orders servers by (deadline, ID); IDs are unique, so the order is
// total.
func rqLess(srv []serverState, a, b int32) bool {
	da, db := srv[a].deadline, srv[b].deadline
	if da != db {
		return da < db
	}
	return a < b
}

// index returns id's slot; id must be queued.
func (r *runq) index(id int32) int {
	for i, x := range r.v {
		if x == id {
			return i
		}
	}
	panic("rtxen: server not in the runqueue")
}

// Push inserts id.
func (r *runq) Push(srv []serverState, id int32) {
	r.v = append(r.v, id)
	r.place(srv, len(r.v)-1)
}

// Remove deletes id, which must be queued.
func (r *runq) Remove(id int32) {
	i := r.index(id)
	r.v = append(r.v[:i], r.v[i+1:]...)
}

// Fix restores sorted order after id's deadline changed.
func (r *runq) Fix(srv []serverState, id int32) { r.place(srv, r.index(id)) }

// place moves the member at slot i to its sorted slot. The rest of the
// list is still sorted, so the new slot is found by binary search on the
// side the member moved toward, and the members in between shift by one
// in a single copy.
func (r *runq) place(srv []serverState, i int) {
	v := r.v
	id := v[i]
	switch {
	case i > 0 && rqLess(srv, id, v[i-1]):
		// Earlier: the first member of v[:i] that id precedes.
		lo, hi := 0, i
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if rqLess(srv, id, v[m]) {
				hi = m
			} else {
				lo = m + 1
			}
		}
		copy(v[lo+1:i+1], v[lo:i])
		v[lo] = id
	case i+1 < len(v) && rqLess(srv, v[i+1], id):
		// Later: past the last member of v[i+1:] that precedes id.
		lo, hi := i+1, len(v)
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if rqLess(srv, v[m], id) {
				lo = m + 1
			} else {
				hi = m
			}
		}
		copy(v[i:lo-1], v[i+1:lo])
		v[lo-1] = id
	}
}

// pickEDF scans the list in order and returns the first server that has
// budget, is runnable, and is not dispatched on another PCPU, together with
// its 1-based rank. With no eligible server it returns -1 and the queue
// length: the scan examined every member. Eligibility reads the host's flat
// hot array, never the VCPU structs.
//
// The three tests fold into one bit so that each member costs a single
// branch, mispredicted only at the pick; written with && and ||, each
// test is a data-dependent branch of its own.
func (r *runq) pickEDF(srv []serverState, hot []hv.VCPUHot, p int32) (int32, int) {
	for i, id := range r.v {
		hs := hot[id]
		// Each test is one bit. budget > 0 iff -budget is negative
		// (budgets are never negative); the if below compiles to a
		// zero-extension, not a branch; the PCPU is free iff it is -1 or
		// p, and (x-1)&^x is negative only when x is 0.
		ok := uint64(-srv[id].budget) >> 63
		var run uint64
		if hs.Runnable {
			run = 1
		}
		x := uint32(hs.PCPU ^ p)
		free := uint64((uint32(hs.PCPU) | (x-1)&^x) >> 31)
		if ok&run&free != 0 {
			return id, i + 1
		}
	}
	return -1, len(r.v)
}
