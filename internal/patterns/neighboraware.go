package patterns

import (
	"fmt"
	"sort"
)

// ChunkFor infers the interference-free chunk size from a detected
// distance set: the smallest power-of-two window at least twice the
// largest distance (Section 5.2.5: neighbors within ±64 imply 128-bit
// chunks), with a floor of 16 bits.
func ChunkFor(distances []int) int {
	maxD := 0
	for _, d := range distances {
		maxD = max(maxD, d, -d)
	}
	chunk := 16
	for chunk < 2*maxD {
		chunk *= 2
	}
	return chunk
}

// NeighborAware generates the neighbor-location-aware charge patterns
// of Section 5.2.5: a minimal set of rounds such that every cell is,
// in some round, charged while every candidate neighbor location
// (victim ± each detected distance) is discharged. Returned patterns
// are in charge space; callers test each pattern and its inverse to
// cover both cell polarities.
//
// The generator uses two constructions:
//
//   - all distances at least 8 (vendors A and C): one-hot over the
//     chunk's 8-bit groups — 16 rounds for a 128-bit chunk. Because
//     only the victim's own group is charged, the pattern also
//     discharges the victim's entire physical interference tail, not
//     just the immediate neighbors.
//   - some distance smaller than 8 (vendor B): one-hot bit position
//     within 8-bit groups, split by chunk half — 16 rounds.
//
// (The paper reports an 8-round scheme for vendor C — charging whole
// groups by group-index class modulo 8. NeighborAwareCompact
// implements it; it guarantees worst-case content only at the
// immediate neighbors, so cells needing aggregate tail interference
// to fail can escape it. See EXPERIMENTS.md.)
//
// Every candidate set is verified against the distance set before
// being returned; if verification fails (possible for unusual custom
// mappings), the generator falls back to one-hot-per-bit rounds,
// which are always correct.
func NeighborAware(distances []int, chunkBits int) ([]Pattern, error) {
	if chunkBits <= 0 {
		return nil, fmt.Errorf("patterns: chunkBits must be positive, got %d", chunkBits)
	}
	mags := distanceMagnitudes(distances)
	if len(mags) == 0 {
		return nil, fmt.Errorf("patterns: no neighbor distances")
	}
	if mags[len(mags)-1] >= chunkBits {
		return nil, fmt.Errorf("patterns: distance %d exceeds chunk size %d", mags[len(mags)-1], chunkBits)
	}

	masks := candidateMasks(mags, chunkBits)
	if !verify(masks, mags, chunkBits) {
		masks = oneHotPerBit(chunkBits)
	}
	return masksToPatterns(masks, chunkBits), nil
}

// NeighborAwareCompact generates the paper's minimal-round variant:
// when every distance is a multiple of 8 or at least 8, it charges
// whole 8-bit groups by group-index class modulo 8 — 8 rounds on a
// 128-bit chunk, the count Section 7.2 reports for vendor C.
// The construction guarantees the worst case only at the immediate
// neighbor distances; it does not protect deeper interference tails.
// For distance sets it cannot serve it behaves like NeighborAware.
func NeighborAwareCompact(distances []int, chunkBits int) ([]Pattern, error) {
	if chunkBits <= 0 {
		return nil, fmt.Errorf("patterns: chunkBits must be positive, got %d", chunkBits)
	}
	mags := distanceMagnitudes(distances)
	if len(mags) == 0 {
		return nil, fmt.Errorf("patterns: no neighbor distances")
	}
	if mags[len(mags)-1] >= chunkBits {
		return nil, fmt.Errorf("patterns: distance %d exceeds chunk size %d", mags[len(mags)-1], chunkBits)
	}
	if mags[0] >= 8 && chunkBits >= 64 {
		masks := groupClassMasks(chunkBits)
		if classSafe(mags) && verify(masks, mags, chunkBits) {
			return masksToPatterns(masks, chunkBits), nil
		}
	}
	return NeighborAware(distances, chunkBits)
}

// classSafe reports whether the mod-8 group-class pattern separates
// every distance for every alignment: no distance may reach group
// delta 0 (mod 8).
func classSafe(mags []int) bool {
	for _, d := range mags {
		g := d / 8
		if g%8 == 0 {
			return false
		}
		if d%8 != 0 && (g+1)%8 == 0 {
			return false
		}
	}
	return true
}

func masksToPatterns(masks [][]bool, chunkBits int) []Pattern {
	out := make([]Pattern, 0, len(masks))
	for i, mask := range masks {
		words := maskWords(mask, chunkBits)
		out = append(out, fromChunkMask(fmt.Sprintf("neighbor-aware-%d", i), words))
	}
	return out
}

// distanceMagnitudes deduplicates |d| and sorts ascending.
func distanceMagnitudes(distances []int) []int {
	set := make(map[int]struct{})
	for _, d := range distances {
		if d < 0 {
			d = -d
		}
		if d > 0 {
			set[d] = struct{}{}
		}
	}
	out := make([]int, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

func candidateMasks(mags []int, chunkBits int) [][]bool {
	const group = 8
	if mags[0] < group || chunkBits < group {
		return positionHalfMasks(chunkBits)
	}
	return oneHotGroupMasks(chunkBits)
}

// oneHotGroupMasks charges one 8-bit group per round (vendor A's 16
// rounds on a 128-bit chunk).
func oneHotGroupMasks(chunkBits int) [][]bool {
	groups := chunkBits / 8
	masks := make([][]bool, groups)
	for g := range masks {
		m := make([]bool, chunkBits)
		for b := 0; b < 8; b++ {
			m[g*8+b] = true
		}
		masks[g] = m
	}
	return masks
}

// positionHalfMasks charges one bit position of every 8-bit group in
// one half of the chunk per round (vendor B's 16 rounds).
func positionHalfMasks(chunkBits int) [][]bool {
	half := chunkBits / 2
	if half == 0 {
		return oneHotPerBit(chunkBits)
	}
	var masks [][]bool
	for p := 0; p < 8; p++ {
		for h := 0; h < 2; h++ {
			m := make([]bool, chunkBits)
			for o := range m {
				if o%8 == p && o/half == h {
					m[o] = true
				}
			}
			masks = append(masks, m)
		}
	}
	return masks
}

// groupClassMasks charges whole 8-bit groups whose group index is
// congruent to the round modulo 8 (vendor C's 8 rounds).
func groupClassMasks(chunkBits int) [][]bool {
	masks := make([][]bool, 8)
	for c := range masks {
		m := make([]bool, chunkBits)
		for o := range m {
			if (o/8)%8 == c {
				m[o] = true
			}
		}
		masks[c] = m
	}
	return masks
}

// oneHotPerBit is the always-correct fallback: one round per bit.
func oneHotPerBit(chunkBits int) [][]bool {
	masks := make([][]bool, chunkBits)
	for i := range masks {
		m := make([]bool, chunkBits)
		m[i] = true
		masks[i] = m
	}
	return masks
}

// verify checks the covering property: every offset must, in some
// round, be charged with all its candidate neighbor offsets
// discharged.
func verify(masks [][]bool, mags []int, chunkBits int) bool {
	for o := 0; o < chunkBits; o++ {
		if !coveredInSomeRound(masks, mags, chunkBits, o) {
			return false
		}
	}
	return true
}

func coveredInSomeRound(masks [][]bool, mags []int, chunkBits, o int) bool {
	for _, m := range masks {
		if !m[o] {
			continue
		}
		ok := true
		for _, d := range mags {
			if o+d < chunkBits && m[o+d] {
				ok = false
				break
			}
			if o-d >= 0 && m[o-d] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// maskWords packs a chunk mask into 64-bit words, replicating the
// chunk pattern up to a whole number of words when the chunk is
// smaller than a word.
func maskWords(mask []bool, chunkBits int) []uint64 {
	window := chunkBits
	for window%64 != 0 {
		window += chunkBits
	}
	words := make([]uint64, window/64)
	for p := 0; p < window; p++ {
		if mask[p%chunkBits] {
			words[p/64] |= 1 << uint(p%64)
		}
	}
	return words
}
