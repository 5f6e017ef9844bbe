package metrics

import "rtvirt/internal/simtime"

// Clone returns an independent copy of the recorder without copying a
// sample. A block is only ever appended to, and only through its owner's
// open slot, so no stored sample is overwritten: the copy shares every
// closed block, and the open block's filled prefix as one more closed
// block capped at its length, while the original keeps appending past
// it. The copy opens its own block on its first Add, and copies the wide
// list; the sorted view is left to be rebuilt by its first query.
func (l *LatencyRecorder) Clone() LatencyRecorder {
	n := LatencyRecorder{narrow: l.narrow, sum: l.sum, top: l.top}
	if len(l.closed) > 0 || len(l.open) > 0 {
		n.closed = make([][]uint32, len(l.closed), len(l.closed)+1)
		copy(n.closed, l.closed)
		if len(l.open) > 0 {
			n.closed = append(n.closed, l.open[:len(l.open):len(l.open)])
		}
	}
	if len(l.wide) > 0 {
		n.wide = append([]simtime.Duration(nil), l.wide...)
	}
	return n
}
