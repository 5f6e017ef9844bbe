package metrics

import (
	"math"
	"slices"
	"testing"

	"rtvirt/internal/sim"
	"rtvirt/internal/simtime"
)

// refRecorder is the reference LatencyRecorder: a plain slice of samples,
// copied and sorted on every query.
type refRecorder struct{ s []simtime.Duration }

func (r *refRecorder) sorted() []simtime.Duration {
	s := slices.Clone(r.s)
	slices.Sort(s)
	return s
}

func (r *refRecorder) percentile(p float64) simtime.Duration {
	s := r.sorted()
	if len(s) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(s))+0.9999999) - 1
	return s[max(0, min(rank, len(s)-1))]
}

func (r *refRecorder) cdf() []CDFPoint {
	s := r.sorted()
	var pts []CDFPoint
	for i := 0; i < len(s); {
		j := i
		for j < len(s) && s[j] == s[i] {
			j++
		}
		pts = append(pts, CDFPoint{Latency: s[i], Fraction: float64(j) / float64(len(s))})
		i = j
	}
	return pts
}

func (r *refRecorder) mean() simtime.Duration {
	if len(r.s) == 0 {
		return 0
	}
	var sum simtime.Duration
	for _, d := range r.s {
		sum += d
	}
	return sum / simtime.Duration(len(r.s))
}

func (r *refRecorder) max() simtime.Duration {
	if len(r.s) == 0 {
		return 0
	}
	return slices.Max(r.s)
}

var diffPercentiles = []float64{0.001, 1, 10, 25, 50, 75, 90, 95, 99, 99.9, 99.99, 100}

// checkAgainst fails unless every query on l answers as ref does.
func checkAgainst(t *testing.T, what string, l *LatencyRecorder, ref *refRecorder) {
	t.Helper()
	if l.Count() != len(ref.s) {
		t.Fatalf("%s: Count = %d, want %d", what, l.Count(), len(ref.s))
	}
	if got, want := l.Mean(), ref.mean(); got != want {
		t.Fatalf("%s: Mean = %d, want %d", what, got, want)
	}
	if got, want := l.Max(), ref.max(); got != want {
		t.Fatalf("%s: Max = %d, want %d", what, got, want)
	}
	for _, p := range diffPercentiles {
		if got, want := l.Percentile(p), ref.percentile(p); got != want {
			t.Fatalf("%s: P%g = %d, want %d", what, p, got, want)
		}
	}
	if got, want := l.CDF(), ref.cdf(); !slices.Equal(got, want) {
		t.Fatalf("%s: CDF has %d points, want %d (first difference in %v vs %v)",
			what, len(got), len(want), head(got), head(want))
	}
}

func head(p []CDFPoint) []CDFPoint { return p[:min(len(p), 4)] }

// diffBytes is the op decoder's input; reading past the end yields zeros.
type diffBytes struct {
	b []byte
	i int
}

func (s *diffBytes) next() byte {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return s.b[s.i-1]
}

func (s *diffBytes) u32() uint32 {
	return uint32(s.next()) | uint32(s.next())<<8 | uint32(s.next())<<16 | uint32(s.next())<<24
}

// sample draws one value of the class c picks, covering the narrow range,
// both edges of the 2³² split, negatives and the int64 extremes.
func sample(c byte, rng *sim.RNG) simtime.Duration {
	u := simtime.Duration(uint32(rng.Uint64()))
	switch c % 9 {
	case 0:
		return simtime.Duration(rng.Intn(50)) // many duplicates
	case 1:
		return u
	case 2:
		return 1<<32 - 1
	case 3:
		return 1<<32 + u
	case 4:
		return -1 - u
	case 5:
		return math.MaxInt64 - u
	case 6:
		return math.MinInt64 + u
	case 7:
		return 1 << 32
	default:
		return simtime.Duration(rng.Intn(1_000_000))
	}
}

// runRecorderOps decodes b into a sequence of operations on four recorders
// and their references — Add, bulk Add, query, Merge (self-merge included),
// Clone over a live recorder, Reserve, reset — and checks every query and
// the final state of all four.
func runRecorderOps(t *testing.T, b []byte) {
	src := &diffBytes{b: b}
	rng := sim.NewRNG(uint64(src.u32()))
	var recs [4]*LatencyRecorder
	var refs [4]*refRecorder
	for i := range recs {
		recs[i], refs[i] = new(LatencyRecorder), new(refRecorder)
	}
	for step := 0; src.i < len(src.b); step++ {
		op, i, j := src.next(), int(src.next()%4), int(src.next()%4)
		switch op % 8 {
		case 0, 1:
			d := sample(src.next(), rng)
			recs[i].Add(d)
			refs[i].s = append(refs[i].s, d)
		case 2:
			// A bulk run long enough to cross block boundaries: an
			// ascending ramp, a descending one or random draws of a class.
			n, c, shape := int(src.next())*12, src.next(), src.next()%3
			base := sample(c, rng)
			for k := 0; k < n; k++ {
				d := sample(c, rng)
				switch shape {
				case 0:
					d = base + simtime.Duration(k)
				case 1:
					d = base - simtime.Duration(k)
				}
				recs[i].Add(d)
				refs[i].s = append(refs[i].s, d)
			}
		case 3:
			checkAgainst(t, "query", recs[i], refs[i])
		case 4:
			recs[i].Merge(recs[j])
			refs[i].s = append(refs[i].s, refs[j].s...)
		case 5:
			c := recs[i].Clone()
			recs[j], refs[j] = &c, &refRecorder{s: slices.Clone(refs[i].s)}
		case 6:
			recs[i].Reserve(int(src.next()) * 8)
		case 7:
			recs[i], refs[i] = new(LatencyRecorder), new(refRecorder)
		}
	}
	for i := range recs {
		checkAgainst(t, "final", recs[i], refs[i])
	}
}

// TestRecorderDifferential pins the compact recorder's answers to the
// sort-everything reference: random operation streams, then the cases
// the blocks and the wide list must get right by construction.
func TestRecorderDifferential(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		rng := sim.NewRNG(7)
		for stream := 0; stream < 200; stream++ {
			b := make([]byte, 16+rng.Intn(400))
			for k := range b {
				b[k] = byte(rng.Uint64())
			}
			runRecorderOps(t, b)
		}
	})
	t.Run("wide-edges", func(t *testing.T) {
		var l LatencyRecorder
		var ref refRecorder
		for _, d := range []simtime.Duration{1<<32 - 1, 1 << 32, 0, -1, math.MinInt64, math.MaxInt64, 5, 1<<32 - 1, -7} {
			l.Add(d)
			ref.s = append(ref.s, d)
			checkAgainst(t, "wide edges", &l, &ref)
		}
	})
	t.Run("all-negative", func(t *testing.T) {
		var l LatencyRecorder
		var ref refRecorder
		for _, d := range []simtime.Duration{-3, -1, -2} {
			l.Add(d)
			ref.s = append(ref.s, d)
		}
		checkAgainst(t, "all negative", &l, &ref)
	})
	t.Run("merge", func(t *testing.T) {
		build := func(ds ...simtime.Duration) (*LatencyRecorder, *refRecorder) {
			l := new(LatencyRecorder)
			for _, d := range ds {
				l.Add(d)
			}
			return l, &refRecorder{s: slices.Clone(ds)}
		}
		long := make([]simtime.Duration, 3000)
		for k := range long {
			long[k] = simtime.Duration((k * 7919) % 3001)
		}
		sources := map[string][]simtime.Duration{
			"empty":     nil,
			"wide-only": {1 << 40, -4, 1 << 32},
			"unsorted":  {9, 3, 7, 1, 1<<32 - 1},
			"long":      long,
		}
		for dstName, dst := range sources {
			for srcName, src := range sources {
				l, ref := build(dst...)
				l.Percentile(50) // a stale view must not survive the Merge
				o, oref := build(src...)
				l.Merge(o)
				ref.s = append(ref.s, oref.s...)
				checkAgainst(t, dstName+"←"+srcName, l, ref)
				checkAgainst(t, srcName+" after merge", o, oref)
			}
		}
		l, ref := build(long...)
		l.Merge(l)
		ref.s = append(ref.s, ref.s...)
		checkAgainst(t, "self-merge", l, ref)
	})
	t.Run("clone-diverges", func(t *testing.T) {
		var a LatencyRecorder
		var aref refRecorder
		for k := 0; k < 2500; k++ { // closed blocks plus a part-full open one
			d := simtime.Duration(k % 997)
			a.Add(d)
			aref.s = append(aref.s, d)
		}
		a.Add(1 << 33)
		aref.s = append(aref.s, 1<<33)
		a.Percentile(99)
		b := a.Clone()
		bref := refRecorder{s: slices.Clone(aref.s)}
		for k := 0; k < 3000; k++ {
			a.Add(simtime.Duration(100000 + k))
			aref.s = append(aref.s, simtime.Duration(100000+k))
			b.Add(simtime.Duration(-k))
			bref.s = append(bref.s, simtime.Duration(-k))
		}
		checkAgainst(t, "original after clone", &a, &aref)
		checkAgainst(t, "clone", &b, &bref)
	})
}

// FuzzRecorderDifferential runs arbitrary operation streams against the
// reference.
func FuzzRecorderDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 2, 3, 5, 2, 0})
	// Bulk ramps into two recorders, a query, a merge, a clone, and wide
	// samples of every class.
	f.Add([]byte{9, 9, 9, 9, 2, 0, 0, 200, 1, 0, 2, 1, 0, 90, 4, 2, 3, 0, 0, 4, 0, 1, 5, 0, 2,
		0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 4, 0, 1, 0, 5, 0, 1, 0, 6, 0, 1, 0, 7, 3, 1, 0, 3, 2, 0})
	f.Add([]byte{3, 1, 4, 1, 6, 2, 0, 50, 2, 2, 0, 60, 7, 0, 5, 2, 1, 0, 1, 1, 4, 4, 1, 1, 3, 1, 0, 7, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 2048 {
			b = b[:2048]
		}
		runRecorderOps(t, b)
	})
}

// TestSteadyStateZeroAlloc pins the recorder's allocation-free paths: Adds
// within Reserve, the running Count, Max and Mean, and a Percentile
// repeated with no Add in between. CI runs it as a zero-alloc guard.
func TestSteadyStateZeroAlloc(t *testing.T) {
	var l LatencyRecorder
	for k := 0; k < 5000; k++ {
		l.Add(simtime.Duration(k * 31 % 4099))
	}
	l.Reserve(20000)
	next := 0
	if n := testing.AllocsPerRun(100, func() {
		for k := 0; k < 100; k++ {
			l.Add(simtime.Duration(next % 7001))
			next++
		}
	}); n != 0 {
		t.Fatalf("Adds within Reserve allocate %.1f per 100, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _, _ = l.Count(), l.Max(), l.Mean() }); n != 0 {
		t.Fatalf("Count/Max/Mean allocate %.1f/op, want 0", n)
	}
	l.Percentile(50)
	if n := testing.AllocsPerRun(100, func() { l.Percentile(99.9) }); n != 0 {
		t.Fatalf("repeated Percentile allocates %.1f/op, want 0", n)
	}
}
