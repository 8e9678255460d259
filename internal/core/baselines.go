package core

import (
	"context"
	"fmt"

	"parbor/internal/memctl"
	"parbor/internal/patterns"
)

// RandomPatternTest is the baseline the paper compares against
// (Figure 12): per-bit random data patterns, unaware of neighbor
// locations, run for the given number of passes. It returns every
// failure observed, or the first pass error (a fault-plane
// *memctl.PassError, or ctx's error once ctx is done).
func (t *Tester) RandomPatternTest(ctx context.Context, passes int) (FailureSet, error) {
	fails := make(FailureSet)
	for i := 0; i < passes; i++ {
		// Random patterns are row-dependent (not Uniform), so this
		// takes fullPassPattern's per-row generation path.
		got, err := t.fullPassPattern(ctx, t.arena, patterns.Random(t.cfg.Seed, i))
		if err != nil {
			return nil, fmt.Errorf("core: random pass %d: %w", i, err)
		}
		fails.Add(got)
	}
	return fails, nil
}

// SimplePatternTest is the all-0s/all-1s test that several prior
// works assume suffices for detecting data-dependent failures
// (Section 3, Challenge 2). It performs two passes and returns the
// failures observed, or the first pass error.
func (t *Tester) SimplePatternTest(ctx context.Context) (FailureSet, error) {
	fails := make(FailureSet)
	solid := patterns.Solid()
	for i, p := range []patterns.Pattern{solid, solid.Inverse()} {
		got, err := t.fullPassPattern(ctx, t.arena, p)
		if err != nil {
			return nil, fmt.Errorf("core: simple pass %d: %w", i, err)
		}
		fails.Add(got)
	}
	return fails, nil
}

// Victim identifies one known data-dependent victim cell for the
// naive searches below.
type Victim struct {
	Row memctl.Row
	// Col is the victim's bit address within the row.
	Col int32
	// FailData is the data value under which the victim fails.
	FailData uint64
}

// DiscoverVictims exposes the discovery phase on its own: it returns
// the victim sample (one per row, capped at the configured sample
// size), the number of passes used, and all observed failures, or
// the first pass error.
func (t *Tester) DiscoverVictims(ctx context.Context) ([]Victim, int, FailureSet, error) {
	vs, tests, fails, err := t.discoverVictims(ctx)
	if err != nil {
		return nil, 0, nil, err
	}
	out := make([]Victim, 0, len(vs))
	for _, v := range vs {
		out = append(out, Victim{Row: v.row, Col: v.col, FailData: v.failData})
	}
	return out, tests, fails, nil
}

// LinearNeighborSearch is the O(n) single-victim baseline: it probes
// every other bit address of the victim's row one at a time and
// returns the bit distances at which the victim failed (the strongly
// coupled neighbor locations), plus the number of passes used.
func (t *Tester) LinearNeighborSearch(ctx context.Context, v Victim) ([]int, int, error) {
	rowBits := t.host.Geometry().Cols
	buf := make([]uint64, t.host.Geometry().Words())
	cell, data := []memctl.BitAddr{cellAddr(v.Row, v.Col)}, [][]uint64{buf}
	var found []int
	passes := 0
	for i := 0; i < rowBits; i++ {
		if i == int(v.Col) {
			continue
		}
		fillRegionPattern(buf, v.FailData, i, 1, int(v.Col))
		failed, err := t.host.Probe(ctx, cell, data, t.host.WaitMs())
		passes++
		if err != nil {
			return nil, 0, err
		}
		if failed != nil {
			found = append(found, i-int(v.Col))
		}
	}
	return found, passes, nil
}

// ExhaustivePairSearch is the O(n^2) naive test of Section 3: it
// probes every combination of two bit addresses in the victim's row
// and returns the distance pairs under which the victim failed, plus
// the number of passes. With a pair probe, a weakly coupled victim
// fails exactly when the pair is its two physical neighbors, which is
// what makes this test complete — and hopeless at 49 days per 8K row
// on real hardware (Appendix).
func (t *Tester) ExhaustivePairSearch(ctx context.Context, v Victim) ([][2]int, int, error) {
	rowBits := t.host.Geometry().Cols
	if rowBits > 4096 {
		return nil, 0, fmt.Errorf("core: exhaustive pair search on %d-bit rows would take %d passes; use a smaller geometry", rowBits, rowBits*(rowBits-1)/2)
	}
	buf := make([]uint64, t.host.Geometry().Words())
	cell, data := []memctl.BitAddr{cellAddr(v.Row, v.Col)}, [][]uint64{buf}
	var found [][2]int
	passes := 0
	for i := 0; i < rowBits; i++ {
		if i == int(v.Col) {
			continue
		}
		for j := i + 1; j < rowBits; j++ {
			if j == int(v.Col) {
				continue
			}
			fillRegionPattern(buf, v.FailData, i, 1, int(v.Col))
			// Complement the second probe bit as well.
			setBitTo(buf, j, 1-v.FailData)
			failed, err := t.host.Probe(ctx, cell, data, t.host.WaitMs())
			passes++
			if err != nil {
				return nil, 0, err
			}
			if failed != nil {
				found = append(found, [2]int{i - int(v.Col), j - int(v.Col)})
			}
		}
	}
	return found, passes, nil
}
