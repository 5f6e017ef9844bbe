package rtxen

import "rtvirt/internal/hv"

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

// Fix restores sorted order after id's deadline changed, shifting the
// members between its old and new slot by one.
func (r *runq) Fix(srv []serverState, id int32) {
	i := int(srv[id].pos)
	for ; i > 0 && rqLess(srv, id, r.v[i-1]); i-- {
		r.v[i] = r.v[i-1]
		srv[r.v[i]].pos = int32(i)
	}
	for ; i+1 < len(r.v) && rqLess(srv, r.v[i+1], id); i++ {
		r.v[i] = r.v[i+1]
		srv[r.v[i]].pos = int32(i)
	}
	r.v[i] = id
	srv[id].pos = int32(i)
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
