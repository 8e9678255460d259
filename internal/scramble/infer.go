package scramble

import (
	"fmt"
	"sort"
)

// inferSegments constructs a plausible physical layout consistent
// with a detected neighbor-distance set: the inverse of what PARBOR
// measures. Many layouts realize the same distance set; this builder
// returns one deterministic monotone candidate in which every
// distance occurs, which is useful for reasoning about a chip whose
// mapping was just detected (e.g. predicting interference tails, or
// seeding further hypothesis tests).
//
// The construction is the bipartite matching of the vendor-C builder,
// generalized: each cell owns an up-slot and a down-slot; edges
// (u, u+d) for each positive distance d are matched greedily with
// least-used-distance preference, so all distances appear with
// comparable frequency.
func inferSegments(distances []int, chunkBits int) ([][]int, error) {
	if chunkBits <= 0 {
		return nil, fmt.Errorf("scramble: chunkBits must be positive, got %d", chunkBits)
	}
	// Positive magnitudes, deduplicated.
	set := make(map[int]struct{})
	for _, d := range distances {
		if d < 0 {
			d = -d
		}
		if d == 0 || d >= chunkBits {
			return nil, fmt.Errorf("scramble: distance %d out of (0, %d)", d, chunkBits)
		}
		set[d] = struct{}{}
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("scramble: empty distance set")
	}
	deltas := make([]int, 0, len(set))
	for d := range set {
		deltas = append(deltas, d)
	}
	sort.Ints(deltas)

	upTaken := make([]bool, chunkBits)
	downFrom := make([]int, chunkBits)
	for i := range downFrom {
		downFrom[i] = -1
	}
	counts := make(map[int]int, len(deltas))
	match := func(v int) {
		if downFrom[v] >= 0 {
			return
		}
		order := append([]int(nil), deltas...)
		sort.SliceStable(order, func(i, j int) bool {
			return counts[order[i]] < counts[order[j]]
		})
		for _, d := range order {
			u := v - d
			if u < 0 || upTaken[u] {
				continue
			}
			upTaken[u] = true
			downFrom[v] = u
			counts[d]++
			return
		}
	}
	for sweep := 0; sweep < 2; sweep++ {
		for i := 0; i < chunkBits; i++ {
			v := (i*37 + 5) % chunkBits
			match(v)
		}
	}

	next := make([]int, chunkBits)
	for i := range next {
		next[i] = -1
	}
	for v, u := range downFrom {
		if u >= 0 {
			next[u] = v
		}
	}
	var segs [][]int
	for start := 0; start < chunkBits; start++ {
		if downFrom[start] >= 0 {
			continue
		}
		seg := []int{start}
		for cur := next[start]; cur >= 0; cur = next[cur] {
			seg = append(seg, cur)
		}
		segs = append(segs, seg)
	}
	return segs, nil
}

// Infer builds a full Mapping from a detected distance set (see
// inferSegments).
func Infer(distances []int, chunkBits int) (*Mapping, error) {
	segs, err := inferSegments(distances, chunkBits)
	if err != nil {
		return nil, err
	}
	return FromSegments(VendorLinear, chunkBits, segs)
}
