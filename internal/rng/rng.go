// Package rng provides a small, fast, deterministic, splittable
// pseudo-random number generator used throughout the simulator.
//
// Every stochastic component of the DRAM model (process variation,
// soft errors, VRT, trace generation) draws from an rng.Source seeded
// from a single experiment seed, so that every experiment in this
// repository is exactly reproducible. The generator is SplitMix64
// (Steele et al., "Fast Splittable Pseudorandom Number Generators"),
// which has a trivially correct split operation: hashing a label into
// the state yields an independent stream.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic SplitMix64 stream. The zero value is a
// valid source seeded with 0; use New to seed explicitly.
//
// Source is NOT safe for concurrent use; split one Source per
// goroutine instead (see Split).
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// mix64 is the SplitMix64 output function (a bijective finalizer).
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix64(s.state)
}

// Split derives an independent child stream labeled by label.
// Two children of the same parent with different labels produce
// streams that are independent for all practical purposes, and the
// parent stream is not perturbed.
func (s *Source) Split(label string) *Source {
	c := s.Child(label)
	return &c
}

// SplitN derives an independent child stream labeled by an integer,
// e.g. one stream per row or per cell array.
func (s *Source) SplitN(label string, n uint64) *Source {
	c := s.Child(label).At(n)
	return &c
}

// Child is Split returning the child stream by value: the stream is
// bit-identical to Split(label)'s, but a local child never escapes to
// the heap. Hot paths (per-row and per-cell draws in the DRAM model)
// use it to stay allocation-free.
func (s *Source) Child(label string) Source {
	h := s.state + 0x9e3779b97f4a7c15
	for i := 0; i < len(label); i++ {
		h = mix64(h ^ uint64(label[i]))
	}
	return Source{state: mix64(h)}
}

// At derives the integer-labeled child of s by value: Child(l).At(n)
// yields exactly the stream of SplitN(l, n). Callers that draw many
// integer-labeled streams off one label (one per row, one per pass)
// cache the Child once and call At per draw, skipping the label hash.
func (s Source) At(n uint64) Source {
	return Source{state: mix64(s.state ^ n)}
}

// Intn returns a uniformly distributed int in [0, n). It panics if
// n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Multiply-shift mapping (Lemire); the residual bias for the small
	// n used by the simulator is negligible and the mapping is
	// branch-free.
	hi, _ := bits.Mul64(s.Uint64(), uint64(n))
	return int(hi)
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1.
func (s *Source) ExpFloat64() float64 {
	u := s.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -math.Log(1 - u)
}
