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
	pats, err := patterns.NeighborAware(distances, patterns.ChunkFor(distances))
	if err != nil {
		return nil, 0, fmt.Errorf("core: generating neighbor-aware patterns: %w", err)
	}
	row := make([]uint64, t.host.Geometry().Words())
	fails := make(FailureSet)
	tests := 0
	for _, p := range pats {
		for _, pp := range []patterns.Pattern{p, p.Inverse()} {
			got, err := t.fullPassPattern(ctx, pp, row)
			if err != nil {
				return nil, 0, fmt.Errorf("core: full-chip pass %d: %w", tests, err)
			}
			fails.Add(got)
			tests++
		}
	}
	return fails, tests, nil
}
