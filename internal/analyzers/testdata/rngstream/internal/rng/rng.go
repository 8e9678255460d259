// Package rng mirrors just enough of parbor/internal/rng for the
// analyzer's type checks: draw methods mutate through a pointer
// receiver, Split/SplitN allocate, Child/At derive by value.
package rng

// Source is a deterministic stream.
type Source struct{ state uint64 }

// New seeds a root stream.
func New(seed uint64) Source { return Source{state: seed | 1} }

// Uint64 draws the next value.
func (s *Source) Uint64() uint64 {
	s.state = s.state*6364136223846793005 + 1442695040888963407
	return s.state
}

// Intn draws an int in [0, n).
func (s *Source) Intn(n int) int { return int(s.Uint64() % uint64(n)) }

// Split allocates an independent child stream.
func (s *Source) Split() *Source { return &Source{state: s.Uint64()} }

// SplitN allocates n independent child streams.
func (s *Source) SplitN(n int) []*Source {
	out := make([]*Source, n)
	for i := range out {
		out[i] = s.Split()
	}
	return out
}

// Child derives the i-th child stream without mutating the parent.
func (s Source) Child(i uint64) Source { return Source{state: s.state ^ (i*2654435761 + 1)} }

// At returns the i-th value of the stream without mutating it.
func (s Source) At(i uint64) uint64 { return s.state ^ i }
