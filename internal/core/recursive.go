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
	victims, discTests, discovered, err := t.DiscoverVictims(ctx)
	if err != nil {
		return nil, err
	}
	if len(victims) == 0 {
		return nil, fmt.Errorf("core: no data-dependent victim candidates found during discovery")
	}
	levels, tests, err := t.recurse(ctx, victims, false, t.cfg.MarginalHitLimit)
	if err != nil {
		return nil, err
	}
	return &NeighborResult{
		Levels:            levels,
		Distances:         levels[len(levels)-1].Distances,
		Victims:           victims,
		SampleSize:        len(victims),
		DiscoveryTests:    discTests,
		RecursionTests:    tests,
		DiscoveryFailures: discovered,
	}, nil
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

// regionArena hands out the shared region-pattern rows of one
// recursion pass. A region test's row depends only on its fill value
// and its region, so every entry probing the same region at the same
// polarity aliases one base row; only an entry whose own bit the base
// row holds wrong gets a dedicated copy (see recurse). Slots are a
// flat table indexed by polarity and region: a pass touches at most
// one region per parent region, and reset clears exactly the slots it
// filled. Buffers are pooled across passes and levels, so the steady
// state allocates nothing.
type regionArena struct {
	words   int
	pool    [][]uint64
	used    int
	regions int
	base    [][]uint64 // slot fill*regions + region index -> this pass's base row
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
// the given size) filled with the bit value fill outside the region,
// filling it on first use.
//
//parbor:hotpath
func (a *regionArena) region(fill uint64, rIdx, size int) []uint64 {
	s := int(fill)*a.regions + rIdx
	if b := a.base[s]; b != nil {
		return b
	}
	b := a.alloc()
	fillRegionBase(b, fill, rIdx*size, size)
	a.base[s] = b
	a.filled = append(a.filled, s)
	return b
}

// recurse is the parallel recursive region test (Sections 5.2.2-5.2.4):
// level by level, from the first split down to single bits, every
// live victim is tested in every region its parent level ranked, all
// victims in one pass per region. It returns each level's report and
// the total number of passes.
//
// A first-order pass (inverse false) writes a victim's row at its fail
// value except the region under test, which holds the complement; the
// victim failing marks the region. An inverse pass writes the row
// opposite to the victim except the region, which holds the victim's
// own value; the victim surviving marks the region
// (DetectExtendedNeighbors). Either way the victim bit holds the fail
// value (Section 5.2.3).
//
// A pass probes each live victim's own cell (memctl.Host.Probe), so
// every failure it reports names its entry by list index; flips
// elsewhere in the row are never evaluated, and an entry listed twice
// is judged twice. A victim's region distance is recomputed from its
// column rather than remembered per pass. After each level, a victim
// that marked more than hitLimit regions is discarded with its
// findings (Section 5.2.4, first step) and the rest are ranked
// (second step); a level at which no victim marks a region is an
// error.
func (t *Tester) recurse(ctx context.Context, victims []Victim, inverse bool, hitLimit int) ([]LevelReport, int, error) {
	rowBits := t.host.Geometry().Cols
	// Entries probing the same region at the same fill alias one arena
	// row (the host never mutates pass data), so a pass fills
	// O(distinct regions) rows, not O(victims).
	arena := newRegionArena(t.host.Geometry().Words(), rowBits)
	dead := make([]bool, len(victims)) // discarded as marginal

	// Reused per-pass slices: the pass's probed cells, their rows'
	// data, and the victim index behind each cell.
	pcells := make([]memctl.BitAddr, 0, len(victims))
	pdata := make([][]uint64, 0, len(victims))
	pvict := make([]int, 0, len(victims))

	var levels []LevelReport
	tests := 0
	parentSize, parentDists := rowBits, []int{0}
	for _, size := range levelSizes(rowBits, t.cfg.FirstSplit, t.cfg.Fanout) {
		k := parentSize / size
		nParents := rowBits / parentSize
		passes := 0
		hits := make([][]int, len(victims)) // region distances each victim marked

		for _, dp := range parentDists {
			for j := 0; j < k; j++ {
				pcells, pdata, pvict = pcells[:0], pdata[:0], pvict[:0]
				arena.reset()
				for vi, v := range victims {
					if dead[vi] {
						continue
					}
					parentIdx := int(v.Col)/parentSize + dp
					if parentIdx < 0 || parentIdx >= nParents {
						continue
					}
					fill := v.FailData
					if inverse {
						fill ^= 1
					}
					row := arena.region(fill, parentIdx*k+j, size)
					if c := int(v.Col); bitAt(row, c) != v.FailData {
						// The shared row holds the wrong value at the
						// victim bit (first-order: the victim lies in
						// the region; inverse: outside it), so this
						// entry needs a dedicated copy.
						fixed := arena.alloc()
						copy(fixed, row)
						setBitTo(fixed, c, v.FailData)
						row = fixed
					}
					pcells = append(pcells, cellAddr(v.Row, v.Col))
					pdata = append(pdata, row)
					pvict = append(pvict, vi)
				}
				passes++
				failed, err := t.host.Probe(ctx, pcells, pdata, t.host.WaitMs())
				if err != nil {
					if inverse {
						return nil, 0, fmt.Errorf("core: extended pass: %w", err)
					}
					return nil, 0, fmt.Errorf("core: level pass (size %d, parent %+d, sub %d): %w", size, dp, j, err)
				}
				// failed is ascending, so one walk pairs it with the
				// entries.
				for e, vi := range pvict {
					fail := len(failed) > 0 && failed[0] == e
					if fail {
						failed = failed[1:]
					}
					if fail == inverse {
						continue
					}
					col := int(victims[vi].Col)
					hits[vi] = append(hits[vi], (col/parentSize+dp)*k+j-col/size)
				}
			}
		}

		// Marginal-victim filtering: a genuine victim marks a bounded
		// number of regions per level, so one exceeding the hit limit
		// reacts to something other than its neighbors' content.
		freq := make(map[int]int)
		for vi, h := range hits {
			if dead[vi] {
				continue
			}
			if len(h) > hitLimit {
				dead[vi] = true
				continue
			}
			for _, d := range h {
				freq[d]++
			}
		}
		if len(freq) == 0 {
			if inverse {
				return nil, 0, fmt.Errorf("core: no tail-gated victim survived at region size %d", size)
			}
			return nil, 0, fmt.Errorf("core: no victim failed at region size %d; cannot locate neighbors", size)
		}
		level := LevelReport{
			RegionSize:  size,
			Tests:       passes,
			Frequencies: freq,
			Distances:   rankDistances(freq, t.cfg.RankThreshold),
		}
		levels = append(levels, level)
		tests += passes
		parentSize, parentDists = size, level.Distances
	}
	return levels, tests, nil
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
// pattern: every bit holds the value fill except the region under
// test, which holds the complement.
//
//parbor:hotpath
func fillRegionBase(buf []uint64, fill uint64, start, size int) {
	word := uint64(0)
	if fill != 0 {
		word = ^uint64(0)
	}
	for i := range buf {
		buf[i] = word
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
