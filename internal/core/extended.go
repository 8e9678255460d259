package core

import (
	"context"
	"fmt"
	"slices"
)

// ExtendedResult is the outcome of second-order neighbor detection.
type ExtendedResult struct {
	// Distances is the ranked set of second-order distances: system
	// offsets, relative to a victim, of cells beyond the immediate
	// neighbors whose content the victim's failure also depends on.
	Distances []int
	// Levels reports each recursion level.
	Levels []LevelReport
	// Victims is the number of tail-gated victims used.
	Victims int
	// Tests is the number of passes performed.
	Tests int
}

// DetectExtendedNeighbors locates second-order dependencies: the
// paper projects that as cells shrink, "potentially more neighboring
// cells will affect each other" (Section 3), pushing the naive search
// to O(n^3) and beyond. PARBOR's recursion generalizes with one
// twist.
//
// The inputs are the detected immediate distances and a set of
// tail-gated victims — victims that failed during discovery but that
// no immediate-neighborhood probe could fire (classification kind
// KindUnknown): their failures require additional cells beyond the
// immediate neighbors to hold the opposite value.
//
// A tail victim fails only when EVERY cell it depends on is opposite
// — an AND over several cells — so the first-order scheme (stress one
// region at a time) never fires once the dependency set spans two
// regions. The extended recursion therefore inverts the probe: each
// pass writes the whole row OPPOSITE to the victim except the region
// under test, which is neutralized to the victim's own value. The
// victim then fails unless the region contains at least one required
// cell — i.e. the victim SURVIVING a pass marks the region as
// containing a dependency. Subdividing the surviving regions walks
// down to the exact dependency locations in O(n) passes: this is the
// first-order recursion itself (recurse), run inverted. The immediate
// neighbors surface too (the victim depends on them as well) and are
// filtered from the result.
func (t *Tester) DetectExtendedNeighbors(ctx context.Context, victims []Victim, distances []int) (*ExtendedResult, error) {
	if len(victims) == 0 {
		return nil, fmt.Errorf("core: no tail-gated victims to test")
	}
	if len(distances) == 0 {
		return nil, fmt.Errorf("core: empty immediate distance set")
	}
	// A genuine tail victim depends on its immediate neighbors plus a
	// bounded tail, so it may legitimately survive in up to
	// |immediate| + tail regions per level; beyond that the victim is
	// reacting to something else (e.g. it never fails at all) and is
	// discarded.
	const maxTailCells = 16
	levels, tests, err := t.recurse(ctx, victims, true, len(distances)+maxTailCells)
	if err != nil {
		return nil, err
	}

	// Remove the immediate distances and the victim's own position:
	// what remains is the second-order tail. The ranked distances are
	// ascending, so the result is too.
	var out []int
	for _, d := range levels[len(levels)-1].Distances {
		if d != 0 && !slices.Contains(distances, d) {
			out = append(out, d)
		}
	}
	return &ExtendedResult{Distances: out, Levels: levels, Victims: len(victims), Tests: tests}, nil
}

// TailGated filters a classification down to the victims whose
// failures the immediate neighborhood could not reproduce — the
// candidates for second-order detection.
func TailGated(classified []ClassifiedVictim) []Victim {
	var out []Victim
	for _, c := range classified {
		if c.Kind == KindUnknown {
			out = append(out, c.Victim)
		}
	}
	return out
}
