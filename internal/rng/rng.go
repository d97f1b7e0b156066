// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the simulator.
//
// Everything in this repository that consumes randomness is seeded
// explicitly, so that experiments are reproducible run-to-run. The package
// implements SplitMix64 (for seeding) and xoshiro256** (for bulk generation),
// both public-domain algorithms by Blackman and Vigna.
package rng

import "math"

// Source is a deterministic 64-bit pseudo-random source. It intentionally
// mirrors a subset of math/rand's shape so distributions can sample from it,
// but it is seedable, splittable and allocation-free.
type Source struct {
	s0, s1, s2, s3 uint64
}

// splitMix64 advances a SplitMix64 state and returns the next value.
// It is used to expand a single seed into the xoshiro state.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Distinct seeds give independent
// streams for all practical purposes.
func New(seed uint64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed resets the source to a state derived from seed.
func (s *Source) Seed(seed uint64) {
	sm := seed
	s.s0 = splitMix64(&sm)
	s.s1 = splitMix64(&sm)
	s.s2 = splitMix64(&sm)
	s.s3 = splitMix64(&sm)
	// xoshiro must not be seeded with all zeros; SplitMix64 of any seed
	// cannot produce four zero words, but guard anyway.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 1
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits (xoshiro256**).
func (s *Source) Uint64() uint64 {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// WorkerSeed derives worker w's sampling-stream seed from a run's seed.
// It is the one derivation the direct simulation and every replay use, so
// a replay on one worker draws the samples of the direct run with the same
// seed.
func WorkerSeed(seed uint64, w int) uint64 {
	return seed ^ (0x9e3779b97f4a7c15 * (uint64(w) + 1))
}

// Split returns a new Source whose stream is independent from s.
// It consumes one value from s.
func (s *Source) Split() *Source {
	return New(s.Uint64())
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	// 53 high-quality bits -> [0,1).
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform float64 in (0, 1), never exactly 0 or 1.
// Useful as input to inverse-CDF and log transforms.
func (s *Source) Float64Open() float64 {
	for {
		v := (float64(s.Uint64()>>11) + 0.5) / (1 << 53)
		if v > 0 && v < 1 {
			return v
		}
	}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded generation would be overkill;
	// modulo bias is negligible for the n used here (worker counts, tiles),
	// but use rejection to keep the stream exactly uniform anyway.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := s.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a standard normal variate using the polar
// (Marsaglia) method.
func (s *Source) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (s *Source) ExpFloat64() float64 {
	return -math.Log(s.Float64Open())
}
