package check

import (
	"fmt"

	"rtvirt/internal/core"
	"rtvirt/internal/simtime"
	"rtvirt/internal/trace"
)

// DispatchDigest folds the dispatch stream into an FNV-1a hash over the
// fields two runs of the same world must agree on — when, which PCPU,
// which virtual CPU.
type DispatchDigest struct {
	hash uint64
	n    int
}

// NewDispatchDigest creates an empty digest.
func NewDispatchDigest() *DispatchDigest {
	return &DispatchDigest{hash: 14695981039346656037}
}

func (d *DispatchDigest) mix(b byte) { d.hash = (d.hash ^ uint64(b)) * 1099511628211 }

// Consume implements trace.Sink.
func (d *DispatchDigest) Consume(ev trace.Event) {
	if ev.Kind != trace.Dispatch {
		return
	}
	d.n++
	for _, v := range [3]uint64{uint64(ev.At), uint64(int64(ev.PCPU)), uint64(int64(ev.VCPU))} {
		for i := 0; i < 8; i++ {
			d.mix(byte(v >> (8 * i)))
		}
	}
	for i := 0; i < len(ev.VM); i++ {
		d.mix(ev.VM[i])
	}
	d.mix(0xff)
}

// Sum returns the digest value.
func (d *DispatchDigest) Sum() uint64 { return d.hash }

// Events returns the number of dispatches folded in.
func (d *DispatchDigest) Events() int { return d.n }

// Equal reports whether two digests saw identical dispatch streams.
func (d *DispatchDigest) Equal(o *DispatchDigest) bool {
	return d.hash == o.hash && d.n == o.n
}

// ForkIdentity is the fork bit-identity oracle: it forks sys at its
// current instant, runs the original and the fork for span each, and
// compares their dispatch streams, which the state model guarantees to be
// identical: every pending event is a typed payload and every piece of
// layer state, a task's demand override included, is forked. The fork
// starts with a fresh disabled bus, so only the digest attached here
// observes it; the original keeps its existing sinks (any armed Suite
// continues auditing the remainder of the run). Returns a Violation on
// divergence, nil when identical.
func ForkIdentity(sys *core.System, span simtime.Duration) *Violation {
	forked, _ := sys.Fork()
	at := sys.Sim.Now()
	orig, twin := NewDispatchDigest(), NewDispatchDigest()
	sys.Host.TraceTo(orig)
	forked.Host.TraceTo(twin)
	sys.Run(span)
	forked.Run(span)
	if !orig.Equal(twin) {
		return &Violation{
			At:     at,
			Oracle: "fork-identity",
			Detail: fmt.Sprintf("fork at %v diverged over %v: original %d dispatches (digest %016x), fork %d (digest %016x)",
				at, span, orig.Events(), orig.Sum(), twin.Events(), twin.Sum()),
		}
	}
	return nil
}

var _ trace.Sink = (*DispatchDigest)(nil)
