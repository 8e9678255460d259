// Package patterns provides the data patterns used by system-level
// DRAM testing: the simple discovery patterns that locate an initial
// victim sample, per-bit random patterns (the baseline the paper
// compares against), and the neighbor-location-aware patterns of
// Section 5.2.5 that stress every cell with the worst-case pattern in
// a small number of rounds.
package patterns

import "parbor/internal/rng"

// Fill writes one row's worth of pattern data into buf. Fills must be
// deterministic in (chip, bank, row), so a pass is reproducible from
// its pattern, and must not mutate shared state: a full-module pass
// calls them concurrently from its per-chip workers.
type Fill func(chip, bank, row int, buf []uint64)

// Pattern is a named row-fill.
type Pattern struct {
	Name string
	Fill Fill
	// Uniform marks fills that ignore (chip, bank, row): every row of
	// the module receives identical data, so one materialized row can
	// back the whole pass (see Arena). The generators in this package
	// set it; custom patterns may too, provided the fill really is
	// row-independent.
	Uniform bool
}

// Inverse returns the bit-complemented pattern. Testing every pattern
// together with its inverse covers both true- and anti-cell rows
// (paper, footnote 3).
func (p Pattern) Inverse() Pattern {
	return Pattern{
		Name: p.Name + "~",
		Fill: func(chip, bank, row int, buf []uint64) {
			p.Fill(chip, bank, row, buf)
			for i := range buf {
				buf[i] = ^buf[i]
			}
		},
		Uniform: p.Uniform,
	}
}

// Arena memoizes materialized rows of uniform patterns so that
// full-module passes can alias one immutable backing slice per
// pattern (see memctl.RowSource) instead of regenerating
// O(rows × words) of identical data on every pass.
//
// Rows are keyed by Pattern.Name, so an arena must only ever see
// pattern sets whose names identify their data uniquely. That holds
// for this package's fixed generators (solid, the stripes, and their
// inverses), but NeighborAware reuses names across distance sets —
// use a fresh arena per generated pattern set.
//
// Arena is not safe for concurrent use: materialize before starting a
// pass and hand the returned slice to the host.
type Arena struct {
	words int
	rows  map[string][]uint64
}

// NewArena returns an arena producing rows of words 64-bit words.
func NewArena(words int) *Arena {
	return &Arena{words: words, rows: make(map[string][]uint64)}
}

// Materialize returns the memoized row of a uniform pattern, filling
// it on first use. The returned slice is shared: every later
// Materialize of the same name aliases it, and the test host reads it
// throughout a pass's write sweep, so callers must never write to it.
// It panics on a non-uniform pattern, whose data cannot be
// represented by a single row.
func (a *Arena) Materialize(p Pattern) []uint64 {
	if !p.Uniform {
		panic("patterns: Materialize on non-uniform pattern " + p.Name)
	}
	if row, ok := a.rows[p.Name]; ok {
		return row
	}
	row := make([]uint64, a.words)
	p.Fill(0, 0, 0, row)
	a.rows[p.Name] = row
	return row
}

// solid returns the all-zeros pattern.
func solid() Pattern {
	return Pattern{
		Name: "solid",
		Fill: func(_, _, _ int, buf []uint64) {
			for i := range buf {
				buf[i] = 0
			}
		},
		Uniform: true,
	}
}

// stripe returns a pattern of alternating runs of `width` zero bits
// and `width` one bits. width must divide 64 or be a multiple of 64.
func stripe(name string, width int) Pattern {
	var word func(bitBase int) uint64
	if width >= 64 {
		word = func(bitBase int) uint64 {
			if (bitBase/width)%2 == 1 {
				return ^uint64(0)
			}
			return 0
		}
	} else {
		// Precompute the repeating 64-bit unit.
		var unit uint64
		for b := 0; b < 64; b++ {
			if (b/width)%2 == 1 {
				unit |= 1 << uint(b)
			}
		}
		word = func(int) uint64 { return unit }
	}
	return Pattern{
		Name: name,
		Fill: func(_, _, _ int, buf []uint64) {
			for i := range buf {
				buf[i] = word(i * 64)
			}
		},
		Uniform: true,
	}
}

// DiscoveryPatterns returns the five base patterns (each to be paired
// with its inverse, for the paper's 10 initial tests) used to locate
// the initial victim sample (Section 5.2.1). The stripe widths are
// chosen so that, together, the patterns place opposite data at every
// distance d = 2^k * odd with 2^k in {1, 8, 16, 32, 64} — checker
// covers all odd distances, each wider stripe the corresponding
// power-of-two multiples. (A solid pattern is deliberately absent: it
// creates no opposite-value pairs at any distance, so it can only
// reveal content-independent cells, which the discovery filter
// removes anyway because they fail under every pattern.)
func DiscoveryPatterns() []Pattern {
	return []Pattern{
		stripe("checker", 1),
		stripe("stripe8", 8),
		stripe("stripe16", 16),
		stripe("stripe32", 32),
		stripe("stripe64", 64),
	}
}

// Solid returns the all-zeros pattern (with its inverse: all-ones),
// the naive pattern pair prior works assume suffices (Section 3).
func Solid() Pattern { return solid() }

// Random returns a per-bit random pattern. Distinct passes use
// distinct streams; the fill is deterministic per (pass, chip, bank,
// row) so the host can regenerate it.
func Random(seed uint64, pass int) Pattern {
	return Pattern{
		Name: "random",
		Fill: func(chip, bank, row int, buf []uint64) {
			src := rng.New(seed).
				SplitN("random-pass", uint64(pass)).
				SplitN("chip", uint64(chip)).
				SplitN("row", uint64(bank)<<32|uint64(row))
			for i := range buf {
				buf[i] = src.Uint64()
			}
		},
	}
}

// FromChunkMask returns a pattern that replicates a chunk-sized
// charge mask across the row. mask holds chunkBits bits in
// chunkBits/64 words.
func FromChunkMask(name string, mask []uint64) Pattern {
	m := append([]uint64(nil), mask...)
	return Pattern{
		Name: name,
		Fill: func(_, _, _ int, buf []uint64) {
			for i := range buf {
				buf[i] = m[i%len(m)]
			}
		},
		Uniform: true,
	}
}
