// Package xrand is the repository's deterministic random source with
// fully explicit, serializable state.
//
// Every random stream in the simulator — the engine RNG, the fabric
// fault RNG, the per-NIC SDMA-error RNG, the Linux noise RNG — must be
// checkpointable: internal/snapshot serializes complete simulator state
// and a restored run has to consume the exact same random sequence the
// straight run would have. math/rand sources hide their state (the Go 1
// source keeps an unexported 607-word lagged-Fibonacci vector), so the
// simulator uses this generator instead: xoshiro256++ seeded through
// SplitMix64, with the whole state exposed as four words.
//
// The zero value is not a valid generator; use New.
package xrand

// Rand is a deterministic pseudo-random generator (xoshiro256++).
// It is not safe for concurrent use — exactly like the simulator's
// single-threaded-by-construction event code that draws from it.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via SplitMix64, so nearby
// seeds produce unrelated streams.
func New(seed int64) *Rand {
	r := &Rand{}
	x := uint64(seed)
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// All-zero state would be a fixed point; SplitMix64 cannot produce
	// four zero outputs in a row, but keep the invariant explicit.
	if r.s == [4]uint64{} {
		r.s[0] = 1
	}
	return r
}

// State returns the generator's complete internal state.
func (r *Rand) State() [4]uint64 { return r.s }

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Int63 returns a non-negative 63-bit random integer.
func (r *Rand) Int63() int64 { return int64(r.Uint64() >> 1) }

// Int63n returns a uniform random integer in [0, n). It panics if
// n <= 0, mirroring math/rand.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int63n with non-positive n")
	}
	if n&(n-1) == 0 { // power of two
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// Float64 returns a uniform random float in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}
