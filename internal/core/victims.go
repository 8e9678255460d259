package core

import (
	"context"
	"fmt"
	"math/bits"

	"parbor/internal/memctl"
	"parbor/internal/patterns"
)

// Victim is one known data-dependent victim cell: a member of the
// discovery sample, the input of the recursion, the classifier and
// the naive searches.
type Victim struct {
	Row memctl.Row
	// Col is the victim's bit address within the row.
	Col int32
	// FailData is the data value (0 or 1) that was written to the
	// cell in the pass where it failed — i.e. the value that leaves
	// the cell charged. The recursive test writes this value to the
	// victim and its complement to the region under test.
	FailData uint64
}

// DiscoverVictims runs the simple discovery patterns (each with its
// inverse — the paper's 10 initial tests) and assembles the initial
// victim sample: cells that failed under at least one pattern but not
// under all of them. Cells failing everywhere are weak/stuck cells,
// not data-dependent, and are excluded (Section 5.2.1). It returns
// the sample (capped at the configured sample size), the number of
// passes used, and every observed failure, or the first pass error.
//
// One victim per row is kept, because the parallel recursive test
// dedicates each row's data pattern to a single victim.
//
// The bookkeeping is map-free: FullPass reports each pass's failures
// in canonical order, so one merge walk per pass folds them into a
// canonical list of candidates with the set of passes each failed in.
// A row's first non-stuck candidate in that list is its lowest-column
// victim, so the victims come out sorted.
func (t *Tester) DiscoverVictims(ctx context.Context) ([]Victim, int, FailureSet, error) {
	base := patterns.DiscoveryPatterns()
	all := make([]patterns.Pattern, 0, 2*len(base))
	for _, p := range base {
		all = append(all, p, p.Inverse())
	}

	// Discovery patterns are uniform: each pass's data is one row,
	// kept so that selectVictims can read a victim's failing data.
	rows := make([][]uint64, len(all))
	var cands, scratch []candidate
	for i, p := range all {
		rows[i] = make([]uint64, t.host.Geometry().Words())
		fails, err := t.fullPassPattern(ctx, p, rows[i])
		if err != nil {
			return nil, 0, nil, fmt.Errorf("core: discovery pass %d: %w", i, err)
		}
		cands, scratch = mergeCandidates(scratch[:0], cands, fails, 1<<uint(i)), cands
	}

	victims, discovered := t.selectVictims(cands, rows)
	return victims, len(all), discovered, nil
}

// selectVictims picks the victim sample from the canonical candidate
// list of the discovery passes, whose uniform row data is rows, and
// returns it with the set of every candidate.
func (t *Tester) selectVictims(cands []candidate, rows [][]uint64) ([]Victim, FailureSet) {
	discovered := make(FailureSet, len(cands))
	var victims []Victim
	allMask := uint32(1)<<uint(len(rows)) - 1
	for _, c := range cands {
		discovered[c.addr] = struct{}{}
		if c.failMask == allMask {
			continue // stuck or weak cell: fails regardless of content
		}
		r := memctl.Row{Chip: int(c.addr.Chip), Bank: int(c.addr.Bank), Row: int(c.addr.Row)}
		if n := len(victims); n > 0 && victims[n-1].Row == r {
			continue // the row already has its lowest-column victim
		}
		// The first failing pass wrote the same row everywhere.
		first := rows[bits.TrailingZeros32(c.failMask)]
		victims = append(victims, Victim{
			Row:      r,
			Col:      c.addr.Col,
			FailData: bitAt(first, int(c.addr.Col)),
		})
	}
	if len(victims) > t.cfg.SampleSize {
		victims = victims[:t.cfg.SampleSize]
	}
	return victims, discovered
}

// candidate is one cell that failed some discovery pass; bit i of
// failMask is set when it failed pass i.
type candidate struct {
	addr     memctl.BitAddr
	failMask uint32
}

// mergeCandidates appends to dst the merge of the canonical candidate
// list cands with one pass's canonical failure list, marking every
// failure with passBit, and returns the extended dst.
func mergeCandidates(dst, cands []candidate, fails []memctl.BitAddr, passBit uint32) []candidate {
	i, j := 0, 0
	for i < len(cands) && j < len(fails) {
		switch c := memctl.CompareAddrs(cands[i].addr, fails[j]); {
		case c < 0:
			dst = append(dst, cands[i])
			i++
		case c > 0:
			dst = append(dst, candidate{fails[j], passBit})
			j++
		default:
			dst = append(dst, candidate{fails[j], cands[i].failMask | passBit})
			i++
			j++
		}
	}
	dst = append(dst, cands[i:]...)
	for _, a := range fails[j:] {
		dst = append(dst, candidate{a, passBit})
	}
	return dst
}

// cellAddr returns the system address of the cell at col in row r.
func cellAddr(r memctl.Row, col int32) memctl.BitAddr {
	return memctl.BitAddr{Chip: int16(r.Chip), Bank: int16(r.Bank), Row: int32(r.Row), Col: col}
}

// bitAt returns bit i of a row bitmap.
func bitAt(words []uint64, i int) uint64 {
	return (words[i>>6] >> (uint(i) & 63)) & 1
}

// setBitTo sets bit i of a row bitmap to v.
func setBitTo(words []uint64, i int, v uint64) {
	mask := uint64(1) << (uint(i) & 63)
	if v != 0 {
		words[i>>6] |= mask
	} else {
		words[i>>6] &^= mask
	}
}
