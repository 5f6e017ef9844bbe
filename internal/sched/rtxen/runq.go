package rtxen

import (
	"sort"

	"rtvirt/internal/hv"
)

// runq is the global runqueue as RT-Xen publishes it: a list of VCPU IDs
// kept sorted by (deadline, ID). Every admitted RT VCPU with budget appears
// here whether runnable or not, and each serverState carries its own
// position, so Remove and Fix know where to start shifting.
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

// Push inserts id.
func (r *runq) Push(srv []serverState, id int32) {
	r.v = append(r.v, id)
	srv[id].pos = int32(len(r.v) - 1)
	r.Fix(srv, id)
}

// Remove deletes id, which must be queued.
func (r *runq) Remove(srv []serverState, id int32) {
	i := int(srv[id].pos)
	r.v = append(r.v[:i], r.v[i+1:]...)
	for ; i < len(r.v); i++ {
		srv[r.v[i]].pos = int32(i)
	}
	srv[id].pos = -1
}

// Fix restores sorted order after id's deadline changed. The rest of the
// list is still sorted, so the new slot is found by binary search on the
// side id moved toward; the members in between shift by one in a single
// copy, and only their positions are rewritten.
func (r *runq) Fix(srv []serverState, id int32) {
	i := int(srv[id].pos)
	v := r.v
	switch {
	case i > 0 && rqLess(srv, id, v[i-1]):
		// Earlier: the first member of v[:i] that id precedes.
		j := sort.Search(i, func(k int) bool { return rqLess(srv, id, v[k]) })
		copy(v[j+1:i+1], v[j:i])
		v[j] = id
		for k := j; k <= i; k++ {
			srv[v[k]].pos = int32(k)
		}
	case i+1 < len(v) && rqLess(srv, v[i+1], id):
		// Later: the last member of v[i+1:] that precedes id.
		j := i + sort.Search(len(v)-i-1, func(k int) bool { return !rqLess(srv, v[i+1+k], id) })
		copy(v[i:j], v[i+1:j+1])
		v[j] = id
		for k := i; k <= j; k++ {
			srv[v[k]].pos = int32(k)
		}
	}
}

// pickEDF scans the list in order and returns the first server that has
// budget, is runnable, and is not dispatched on another PCPU, together with
// its 1-based rank. With no eligible server it returns -1 and the queue
// length: the scan examined every member. Eligibility reads the host's flat
// hot array, never the VCPU structs.
func (r *runq) pickEDF(srv []serverState, hot []hv.VCPUHot, p int32) (int32, int) {
	for i, id := range r.v {
		hs := hot[id]
		if srv[id].budget > 0 && hs.Runnable && (hs.PCPU < 0 || hs.PCPU == p) {
			return id, i + 1
		}
	}
	return -1, len(r.v)
}
