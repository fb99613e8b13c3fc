// Package rng provides a small, deterministic pseudo-random number
// generator used throughout the repository.
//
// Experiments in this repo must be bit-for-bit reproducible from a seed,
// across Go releases and across machines. math/rand's generator and its
// top-level convenience functions do not make that guarantee (and the
// top-level functions are seeded randomly since Go 1.20), so we implement
// xoshiro256** seeded via splitmix64 — the standard, published construction
// — and expose only the derived operations the simulator needs (integers in
// range, permutations, subset sampling).
//
// The zero value of Source is not usable; construct with New. Sources are
// not safe for concurrent use; give each goroutine its own Source via Split.
package rng

import "math/bits"

// Source is a xoshiro256** generator.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via splitmix64, per the xoshiro
// authors' recommendation.
func New(seed uint64) *Source {
	var src Source
	src.Seed(seed)
	return &src
}

// Seed resets s in place to the stream New(seed) returns, so a caller
// that runs many streams one after another can reuse one Source.
func (s *Source) Seed(seed uint64) {
	sm := seed
	for i := range s.s {
		sm, s.s[i] = splitmix64(sm)
	}
	// xoshiro256** requires a nonzero state; splitmix64 of any seed yields
	// one with overwhelming probability, but guard the (seed-crafted)
	// pathological case anyway.
	if s.s == [4]uint64{} {
		s.s[0] = 0x9e3779b97f4a7c15
	}
}

// splitmix64 advances the splitmix64 state and returns (newState, output).
func splitmix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	result := bits.RotateLeft64(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = bits.RotateLeft64(s.s[3], 45)
	return result
}

// Split returns a new Source whose stream is independent of s's future
// output (derived by hashing the current state through splitmix64).
// Use it to hand child components their own generators.
func (s *Source) Split() *Source {
	return New(s.Uint64())
}

// Intn returns a uniform integer in [0, n). n must be > 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless method.
	bound := uint64(n)
	x := s.Uint64()
	hi, lo := bits.Mul64(x, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = s.Uint64()
			hi, lo = bits.Mul64(x, bound)
		}
	}
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Perm returns a uniform random permutation of [0, n) (Fisher–Yates).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(p)
	return p
}

// Shuffle permutes p uniformly in place.
func (s *Source) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Sample returns k distinct values from [0, n), in random order.
// It panics if k < 0 or k > n.
func (s *Source) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample k out of range")
	}
	// Partial Fisher–Yates over a dense index table; O(n) space, O(n+k)
	// time. Fine at simulator scales (n is the process count).
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + s.Intn(n-i)
		p[i], p[j] = p[j], p[i]
	}
	return p[:k]
}
