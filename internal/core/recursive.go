package core

import (
	"context"
	"fmt"
	"sort"

	"parbor/internal/memctl"
)

// DetectNeighborsCtx runs discovery plus the parallel recursive test
// and returns the neighbor-location result (steps 1-4 of Section
// 5.1).
func (t *Tester) DetectNeighborsCtx(ctx context.Context) (*NeighborResult, error) {
	victims, discTests, discovered, err := t.discoverVictims(ctx)
	if err != nil {
		return nil, err
	}
	if len(victims) == 0 {
		return nil, fmt.Errorf("core: no data-dependent victim candidates found during discovery")
	}
	res := &NeighborResult{
		SampleSize:        len(victims),
		DiscoveryTests:    discTests,
		DiscoveryFailures: discovered,
	}

	rowBits := t.host.Geometry().Cols
	sizes := levelSizes(rowBits, t.cfg.FirstSplit, t.cfg.Fanout)

	// Shared region-pattern buffers: victims probing the same region
	// with the same fail polarity alias one buffer (the host never
	// mutates pass data), so a pass fills O(distinct regions) rows,
	// not O(victims).
	arena := newRegionArena(t.host.Geometry().Words(), rowBits)

	parentSize := rowBits
	parentDists := []int{0}
	for _, size := range sizes {
		report, err := t.runLevel(ctx, victims, arena, rowBits, parentSize, size, parentDists)
		if err != nil {
			return nil, err
		}
		res.Levels = append(res.Levels, *report)
		res.RecursionTests += report.Tests
		parentSize = size
		parentDists = report.Distances
	}
	res.Distances = parentDists
	return res, nil
}

// levelSizes returns the region sizes of each recursion level: the
// row is split into firstSplit regions at level 1 and each found
// region is subdivided by fanout at deeper levels, down to single
// bits. For the paper's 8K rows with firstSplit=2, fanout=8 this is
// [4096, 512, 64, 8, 1].
func levelSizes(rowBits, firstSplit, fanout int) []int {
	var sizes []int
	s := rowBits / firstSplit
	if s < 1 {
		s = 1
	}
	for {
		for s > 1 && rowBits%s != 0 {
			s--
		}
		sizes = append(sizes, s)
		if s == 1 {
			return sizes
		}
		s /= fanout
		if s < 1 {
			s = 1
		}
	}
}

// regionArena hands out the shared base region-pattern buffers of one
// recursion pass. All victims with the same fail polarity probing the
// same region write identical data (the victim-bit fix-up in runLevel
// is only needed when the victim lies inside the region), so the
// arena keeps one base buffer per (failData, region index) slot.
// Slots are a flat table indexed by region: a pass touches
// at most one region per parent region, and reset clears exactly the
// slots it filled. Buffers are pooled across passes and levels, so the
// steady state allocates nothing.
type regionArena struct {
	words   int
	pool    [][]uint64
	used    int
	regions int
	base    [][]uint64 // slot failData*regions + region index -> this pass's base row
	filled  []int      // slots set this pass
}

// newRegionArena sizes the slot table for up to regions regions per
// row (the finest level has one region per bit).
func newRegionArena(words, regions int) *regionArena {
	return &regionArena{words: words, regions: regions, base: make([][]uint64, 2*regions)}
}

// reset starts a new pass: all pooled buffers become reusable and no
// region is materialized.
//
//parbor:hotpath
func (a *regionArena) reset() {
	a.used = 0
	for _, s := range a.filled {
		a.base[s] = nil
	}
	a.filled = a.filled[:0]
}

// alloc returns a pooled buffer of undefined content.
//
//parbor:hotpath
func (a *regionArena) alloc() []uint64 {
	if a.used < len(a.pool) {
		b := a.pool[a.used]
		a.used++
		return b
	}
	b := make([]uint64, a.words)
	a.pool = append(a.pool, b)
	a.used++
	return b
}

// region returns this pass's shared base buffer for region rIdx (of
// the given size) under fail polarity failData, filling it on first
// use.
//
//parbor:hotpath
func (a *regionArena) region(failData uint64, rIdx, size int) []uint64 {
	s := int(failData)*a.regions + rIdx
	if b := a.base[s]; b != nil {
		return b
	}
	b := a.alloc()
	fillRegionBase(b, failData, rIdx*size, size)
	a.base[s] = b
	a.filled = append(a.filled, s)
	return b
}

// runLevel performs every region test of one recursion level over all
// live victims simultaneously, applies marginal-victim filtering, and
// ranks the observed distances.
//
// A pass probes each live victim's own cell (memctl.Host.Probe), so
// every failure it reports names its victim by list index; flips
// elsewhere in the row are never evaluated. A victim's region
// distance is recomputed from its column rather than remembered per
// pass.
func (t *Tester) runLevel(ctx context.Context, victims []victimInfo, arena *regionArena, rowBits, parentSize, size int, parentDists []int) (*LevelReport, error) {
	k := parentSize / size
	nParents := rowBits / parentSize

	passes := 0
	hits := make([][]int, len(victims)) // region distances at which each victim failed

	// Reused per-pass slices: the pass's probed cells, their rows'
	// data, and the victim index behind each cell.
	pcells := make([]memctl.BitAddr, 0, len(victims))
	pdata := make([][]uint64, 0, len(victims))
	pvict := make([]int, 0, len(victims))

	for _, dp := range parentDists {
		for j := 0; j < k; j++ {
			pcells = pcells[:0]
			pdata = pdata[:0]
			pvict = pvict[:0]
			arena.reset()

			for vi := range victims {
				v := &victims[vi]
				if v.dead {
					continue
				}
				parentIdx := int(v.col)/parentSize + dp
				if parentIdx < 0 || parentIdx >= nParents {
					continue
				}
				rIdx := parentIdx*k + j
				start := rIdx * size
				row := arena.region(v.failData, rIdx, size)
				if c := int(v.col); c >= start && c < start+size {
					// The victim bit lies inside the complemented
					// region and must keep its fail value (Section
					// 5.2.3): this victim needs a dedicated copy.
					// Outside the region the base row already holds
					// failData at the victim bit, so sharing is exact.
					fixed := arena.alloc()
					copy(fixed, row)
					setBitTo(fixed, c, v.failData)
					row = fixed
				}
				pcells = append(pcells, cellAddr(v.row, v.col))
				pdata = append(pdata, row)
				pvict = append(pvict, vi)
			}
			passes++
			failed, err := t.host.Probe(ctx, pcells, pdata, t.host.WaitMs())
			if err != nil {
				return nil, fmt.Errorf("core: level pass (size %d, parent %+d, sub %d): %w", size, dp, j, err)
			}
			for _, e := range failed {
				vi := pvict[e]
				col := int(victims[vi].col)
				d := (col/parentSize+dp)*k + j - col/size
				hits[vi] = append(hits[vi], d)
			}
		}
	}

	// Marginal-victim filtering: a genuine victim fails in at most one
	// region per level, so a victim exceeding the hit limit is failing
	// for non-data-dependent reasons; drop it and its findings
	// (Section 5.2.4, first step).
	limit := t.cfg.MarginalHitLimit
	freq := make(map[int]int)
	for vi := range victims {
		if victims[vi].dead {
			continue
		}
		if len(hits[vi]) > limit {
			victims[vi].dead = true
			continue
		}
		for _, d := range hits[vi] {
			freq[d]++
		}
	}
	if len(freq) == 0 {
		return nil, fmt.Errorf("core: no victim failed at region size %d; cannot locate neighbors", size)
	}

	return &LevelReport{
		RegionSize:  size,
		Tests:       passes,
		Frequencies: freq,
		Distances:   rankDistances(freq, t.cfg.RankThreshold),
	}, nil
}

// rankDistances keeps the distances whose frequency is at least
// threshold times the maximum frequency (Section 5.2.4, second step).
func rankDistances(freq map[int]int, threshold float64) []int {
	max := 0
	for _, c := range freq {
		if c > max {
			max = c
		}
	}
	out := make([]int, 0, len(freq))
	for d, c := range freq {
		if float64(c) >= threshold*float64(max) {
			out = append(out, d)
		}
	}
	sort.Ints(out)
	return out
}

// fillRegionBase builds the victim-agnostic half of a region test
// pattern: every bit holds the fail value except the region under
// test, which holds the complement.
//
//parbor:hotpath
func fillRegionBase(buf []uint64, failData uint64, start, size int) {
	fill := uint64(0)
	if failData != 0 {
		fill = ^uint64(0)
	}
	for i := range buf {
		buf[i] = fill
	}
	end := start + size // exclusive
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
		buf[w] ^= mask // complement the region bits
	}
}

// fillRegionPattern builds one victim row's test pattern: every bit
// holds the victim's fail value except the region under test, which
// holds the complement; the victim bit itself keeps its fail value
// even when it lies inside the region (Section 5.2.3).
//
//parbor:hotpath
func fillRegionPattern(buf []uint64, failData uint64, start, size, victimCol int) {
	fillRegionBase(buf, failData, start, size)
	setBitTo(buf, victimCol, failData)
}
