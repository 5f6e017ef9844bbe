package sim

import "math"

// RNG is a small, fast, deterministic random source (splitmix64 core).
// It is not cryptographically secure; it exists so simulation runs are
// reproducible across platforms and Go releases, which the stdlib global
// source does not guarantee.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Split returns a new independent generator derived from the current
// stream, for workloads that need their own stable substream.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64() ^ 0x9e3779b97f4a7c15) }

// Clone returns a generator that continues this stream from exactly the
// same point, for forked simulations.
func (r *RNG) Clone() *RNG { return &RNG{state: r.state} }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63n returns a uniform value in [0, n). n must be > 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive bound")
	}
	// Rejection sampling to remove modulo bias.
	max := uint64(n)
	limit := (^uint64(0) / max) * max
	for {
		v := r.Uint64()
		if v < limit {
			return int64(v % max)
		}
	}
}

// Intn returns a uniform value in [0, n). n must be > 0.
func (r *RNG) Intn(n int) int { return int(r.Int63n(int64(n))) }

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Box–Muller; one value per
// call, the pair's second value is discarded for simplicity).
func (r *RNG) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}
