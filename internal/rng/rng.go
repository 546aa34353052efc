// Package rng provides deterministic pseudo-random number streams for
// experiments. Every experiment in this repository derives its randomness
// from a named stream so that tables and benchmarks regenerate identically
// across runs and machines.
//
// The generator is xoshiro256** seeded through splitmix64, the combination
// recommended by Blackman and Vigna. It is not cryptographically secure;
// it only has to be fast, well distributed and reproducible.
package rng

// Stream is a deterministic pseudo-random number generator.
// The zero value is not valid; use New or NewNamed.
type Stream struct {
	s [4]uint64
}

// splitmix64 advances the seed expander state and returns the next value.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a stream seeded from the given 64-bit seed.
func New(seed uint64) *Stream {
	st := &Stream{}
	x := seed
	for i := range st.s {
		st.s[i] = splitmix64(&x)
	}
	// xoshiro must not start from the all-zero state.
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 0x9e3779b97f4a7c15
	}
	return st
}

// NewNamed returns a stream whose seed mixes a base seed with a stream name,
// so independent experiment phases get independent, reproducible streams.
func NewNamed(seed uint64, name string) *Stream {
	h := seed
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0x100000001b3 // FNV-1a prime
	}
	return New(h)
}

// Split consumes one draw from r and returns n independent substreams
// derived from it. The substreams are a pure function of the parent's
// state at the call, so a fixed seed yields the same family of streams on
// every run and machine regardless of how the substreams are later
// consumed — the property that lets parallel drivers hand substream i to
// whichever worker picks up work item i and still produce bit-identical
// results at any worker count.
func (r *Stream) Split(n int) []*Stream {
	base := r.Uint64()
	out := make([]*Stream, n)
	for i := range out {
		// Each substream seed is one step of a splitmix64 sequence rooted
		// at the parent draw; New then expands it through four more steps,
		// so even adjacent substreams share no state structure.
		out[i] = New(splitmix64(&base))
	}
	return out
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Stream) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform pseudo-random int in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	un := uint64(n)
	// Rejection sampling: accept only draws below the largest multiple of
	// un representable in 64 bits, so v % un is unbiased.
	limit := ^uint64(0) - ^uint64(0)%un
	for {
		if v := r.Uint64(); v < limit {
			return int(v % un)
		}
	}
}

// Bool returns a pseudo-random boolean.
func (r *Stream) Bool() bool { return r.Uint64()&1 == 1 }

// Perm returns a pseudo-random permutation of [0, n).
func (r *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Bits fills dst with pseudo-random bits, one bool per element.
func (r *Stream) Bits(dst []bool) {
	var w uint64
	for i := range dst {
		if i%64 == 0 {
			w = r.Uint64()
		}
		dst[i] = w&1 == 1
		w >>= 1
	}
}

// Words fills dst with pseudo-random 64-bit words.
func (r *Stream) Words(dst []uint64) {
	for i := range dst {
		dst[i] = r.Uint64()
	}
}
