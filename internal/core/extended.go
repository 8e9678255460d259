package core

import (
	"context"
	"fmt"
	"sort"

	"parbor/internal/memctl"
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
// down to the exact dependency locations in O(n) passes, exactly like
// the first-order recursion. The immediate neighbors surface too (the
// victim depends on them as well) and are filtered from the result.
func (t *Tester) DetectExtendedNeighbors(ctx context.Context, victims []Victim, distances []int) (*ExtendedResult, error) {
	if len(victims) == 0 {
		return nil, fmt.Errorf("core: no tail-gated victims to test")
	}
	if len(distances) == 0 {
		return nil, fmt.Errorf("core: empty immediate distance set")
	}
	rowBits := t.host.Geometry().Cols
	words := t.host.Geometry().Words()
	sizes := levelSizes(rowBits, t.cfg.FirstSplit, t.cfg.Fanout)

	bufs := make([][]uint64, len(victims))
	for i := range bufs {
		bufs[i] = make([]uint64, words)
	}
	dead := make([]bool, len(victims))

	// A genuine tail victim depends on its immediate neighbors plus a
	// bounded tail, so it may legitimately survive in up to
	// |immediate| + tail regions per level; beyond that the victim is
	// reacting to something else (e.g. it never fails at all) and is
	// discarded.
	const maxTailCells = 16
	hitLimit := len(distances) + maxTailCells

	pcells := make([]memctl.BitAddr, 0, len(victims))
	pdata := make([][]uint64, 0, len(victims))
	pvict := make([]int, 0, len(victims))

	res := &ExtendedResult{Victims: len(victims)}
	parentSize := rowBits
	parentDists := []int{0}

	for _, size := range sizes {
		k := parentSize / size
		nParents := rowBits / parentSize
		passes := 0
		hits := make([][]int, len(victims))

		for _, dp := range parentDists {
			for j := 0; j < k; j++ {
				pcells, pdata, pvict = pcells[:0], pdata[:0], pvict[:0]
				for vi, v := range victims {
					if dead[vi] {
						continue
					}
					parentIdx := int(v.Col)/parentSize + dp
					if parentIdx < 0 || parentIdx >= nParents {
						continue
					}
					rIdx := parentIdx*k + j
					fillNeutralizedPattern(bufs[vi], v.FailData, rIdx*size, size, int(v.Col))
					pcells = append(pcells, cellAddr(v.Row, v.Col))
					pdata = append(pdata, bufs[vi])
					pvict = append(pvict, vi)
				}
				passes++
				failed, err := t.host.Probe(ctx, pcells, pdata, t.host.WaitMs())
				if err != nil {
					return nil, fmt.Errorf("core: extended pass: %w", err)
				}
				// Survival, not failure, is the signal. failed is
				// ascending, so one walk pairs it with the entries.
				for e, vi := range pvict {
					if len(failed) > 0 && failed[0] == e {
						failed = failed[1:]
						continue
					}
					col := int(victims[vi].Col)
					rIdx := (col/parentSize+dp)*k + j
					hits[vi] = append(hits[vi], rIdx-col/size)
				}
			}
		}
		res.Tests += passes

		freq := make(map[int]int)
		for vi := range victims {
			if dead[vi] {
				continue
			}
			if len(hits[vi]) > hitLimit {
				dead[vi] = true
				continue
			}
			for _, d := range hits[vi] {
				freq[d]++
			}
		}
		if len(freq) == 0 {
			return nil, fmt.Errorf("core: no tail-gated victim survived at region size %d", size)
		}
		report := LevelReport{
			RegionSize:  size,
			Tests:       passes,
			Frequencies: freq,
			Distances:   rankDistances(freq, t.cfg.RankThreshold),
		}
		res.Levels = append(res.Levels, report)
		parentSize = size
		parentDists = report.Distances
	}

	// Remove the immediate distances and the victim's own position:
	// what remains is the second-order tail.
	imm := make(map[int]bool, len(distances))
	for _, d := range distances {
		imm[d] = true
	}
	var out []int
	for _, d := range parentDists {
		if !imm[d] && d != 0 {
			out = append(out, d)
		}
	}
	sort.Ints(out)
	res.Distances = out
	return res, nil
}

// fillNeutralizedPattern writes the inverse probe: every bit opposite
// to the victim's fail value, except the region under test and the
// victim itself, which hold the fail value.
func fillNeutralizedPattern(buf []uint64, failData uint64, start, size, victimCol int) {
	fill := ^uint64(0)
	if failData != 0 {
		fill = 0
	}
	for i := range buf {
		buf[i] = fill
	}
	end := start + size
	firstWord := start >> 6
	lastWord := (end - 1) >> 6
	for w := firstWord; w <= lastWord; w++ {
		mask := ^uint64(0)
		if w == firstWord {
			mask &= ^uint64(0) << (uint(start) & 63)
		}
		if w == lastWord {
			shift := uint(end-1)&63 + 1
			if shift < 64 {
				mask &= (uint64(1) << shift) - 1
			}
		}
		buf[w] ^= mask // neutralize the region (victim's value)
	}
	setBitTo(buf, victimCol, failData)
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
