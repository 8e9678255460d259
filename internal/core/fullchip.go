package core

import (
	"context"
	"fmt"

	"parbor/internal/patterns"
)

// FullChipTestCtx tests every cell of the module for data-dependent
// failures using neighbor-aware patterns built from the detected
// distance set (step 5 of Section 5.1). Each pattern is also tested
// inverted to cover both cell polarities, so the number of tests is
// twice the pattern-round count. It returns the uncovered failures
// and the number of passes performed.
func (t *Tester) FullChipTestCtx(ctx context.Context, distances []int) (FailureSet, int, error) {
	if len(distances) == 0 {
		return nil, 0, fmt.Errorf("core: empty distance set")
	}
	chunk := chunkForDistances(distances)
	pats, err := patterns.NeighborAware(distances, chunk)
	if err != nil {
		return nil, 0, fmt.Errorf("core: generating neighbor-aware patterns: %w", err)
	}
	// Fresh arena per generated pattern set: NeighborAware reuses
	// names across distance sets, so the tester-wide arena would serve
	// stale rows here.
	arena := patterns.NewArena(t.host.Geometry().Words())
	fails := make(FailureSet)
	tests := 0
	for _, p := range pats {
		for _, pp := range []patterns.Pattern{p, p.Inverse()} {
			got, err := t.fullPassPattern(ctx, arena, pp)
			if err != nil {
				return nil, 0, fmt.Errorf("core: full-chip pass %d: %w", tests, err)
			}
			fails.Add(got)
			tests++
		}
	}
	return fails, tests, nil
}

// chunkForDistances infers the interference-free chunk size from the
// detected distances: the smallest power-of-two window at least twice
// the maximum distance (Section 5.2.5: neighbors within ±64 imply
// 128-bit chunks), with a floor of 16 bits.
func chunkForDistances(distances []int) int {
	maxD := 0
	for _, d := range distances {
		if d < 0 {
			d = -d
		}
		if d > maxD {
			maxD = d
		}
	}
	chunk := 16
	for chunk < 2*maxD {
		chunk *= 2
	}
	return chunk
}
