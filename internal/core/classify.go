package core

import (
	"context"
	"fmt"
	"sort"

	"parbor/internal/memctl"
)

// CouplingKind is the system-observable coupling class of a victim:
// unlike the device model's left/right taxonomy, the system can only
// name neighbor locations by their address distances.
type CouplingKind int

// Observable victim classes.
const (
	// KindUnknown: the victim failed during discovery but no probe at
	// the detected distances reproduced the failure (its coupling
	// involves cells beyond the immediate neighbors, or the original
	// failure was not data-dependent at all).
	KindUnknown CouplingKind = iota
	// KindContentIndependent: the victim fails even under a quiet
	// pattern with no opposite-value cells anywhere — a marginal,
	// VRT, weak or remapped cell rather than a coupling victim.
	KindContentIndependent
	// KindSingle: a strongly coupled cell — one neighbor distance
	// alone reproduces the failure.
	KindSingle
	// KindPair: a weakly coupled cell — only a pair of distances
	// (both neighbors) reproduces the failure.
	KindPair
)

// String names the class.
func (k CouplingKind) String() string {
	switch k {
	case KindUnknown:
		return "unknown"
	case KindContentIndependent:
		return "content-independent"
	case KindSingle:
		return "strongly-coupled"
	case KindPair:
		return "weakly-coupled"
	default:
		return fmt.Sprintf("CouplingKind(%d)", int(k))
	}
}

// ClassifiedVictim is one victim with its probe-derived class.
type ClassifiedVictim struct {
	Victim Victim
	Kind   CouplingKind
	// Distances names the distance (KindSingle) or distance pair
	// (KindPair) that reproduced the failure.
	Distances []int
}

// ClassifyVictims determines each victim's coupling class by directed
// probing, given the neighbor distances a prior DetectNeighborsCtx run
// produced. It is the bridge from detection to mitigation: DC-REF
// needs to know, per vulnerable cell, which data arrangement is
// dangerous (Section 8), and repair/ECC policies treat
// content-independent failures differently from coupling failures.
//
// The probe sequence, each step one parallel pass over all victim
// rows (like the recursion, Section 4.2):
//
//  1. a quiet pass — every bit holds the victim's fail value, so no
//     cell anywhere is opposite: only content-independent victims
//     can fail;
//  2. one pass per detected distance d — only the cell at victim+d
//     is opposite: strongly coupled victims fail at their neighbor;
//  3. one pass per distance pair {d1, d2} — weakly coupled victims
//     fail when both neighbors are opposite.
//
// The returned test count is 1 + |D| + C(|D|, 2) regardless of the
// victim count.
func (t *Tester) ClassifyVictims(ctx context.Context, victims []Victim, distances []int) ([]ClassifiedVictim, int, error) {
	if len(victims) == 0 {
		return nil, 0, fmt.Errorf("core: no victims to classify")
	}
	if len(distances) == 0 {
		return nil, 0, fmt.Errorf("core: empty distance set")
	}
	rowBits := t.host.Geometry().Cols
	words := t.host.Geometry().Words()

	out := make([]ClassifiedVictim, len(victims))
	for i, v := range victims {
		out[i] = ClassifiedVictim{Victim: v, Kind: KindUnknown}
	}

	bufs := make([][]uint64, len(victims))
	for i := range bufs {
		bufs[i] = make([]uint64, words)
	}

	tests := 0
	pcells := make([]memctl.BitAddr, 0, len(victims))
	pdata := make([][]uint64, 0, len(victims))
	pvict := make([]int, 0, len(victims))
	// probe runs one parallel pass; offsets lists the bit distances
	// set opposite relative to each victim. It returns the indices of
	// the victims that failed, ascending: every entry of the probe is
	// judged on its own, so a victim listed twice is classified twice.
	probe := func(offsets []int) ([]int, error) {
		pcells, pdata, pvict = pcells[:0], pdata[:0], pvict[:0]
		for i, v := range victims {
			ok := true
			for _, d := range offsets {
				if p := int(v.Col) + d; p < 0 || p >= rowBits {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			// Fill the row with the victim's fail value (the victim
			// charged, nothing opposite), then flip only the probe
			// offsets.
			fill := uint64(0)
			if v.FailData != 0 {
				fill = ^uint64(0)
			}
			for w := range bufs[i] {
				bufs[i][w] = fill
			}
			for _, d := range offsets {
				setBitTo(bufs[i], int(v.Col)+d, 1-v.FailData)
			}
			pcells = append(pcells, cellAddr(v.Row, v.Col))
			pdata = append(pdata, bufs[i])
			pvict = append(pvict, i)
		}
		failed, err := t.host.Probe(ctx, pcells, pdata, t.host.WaitMs())
		tests++
		if err != nil {
			return nil, err
		}
		for k, e := range failed {
			failed[k] = pvict[e]
		}
		return failed, nil
	}

	// Step 1: quiet pass.
	quietHits, err := probe(nil)
	if err != nil {
		return nil, 0, err
	}
	for _, i := range quietHits {
		out[i].Kind = KindContentIndependent
	}

	// Step 2: single distances.
	for _, d := range distances {
		hits, err := probe([]int{d})
		if err != nil {
			return nil, 0, err
		}
		for _, i := range hits {
			if out[i].Kind == KindContentIndependent {
				continue
			}
			if out[i].Kind == KindUnknown {
				out[i].Kind = KindSingle
			}
			out[i].Distances = appendUnique(out[i].Distances, d)
		}
	}

	// Step 3: distance pairs, for victims still unclassified.
	for a := 0; a < len(distances); a++ {
		for b := a + 1; b < len(distances); b++ {
			hits, err := probe([]int{distances[a], distances[b]})
			if err != nil {
				return nil, 0, err
			}
			for _, i := range hits {
				if out[i].Kind != KindUnknown {
					continue
				}
				out[i].Kind = KindPair
				out[i].Distances = []int{distances[a], distances[b]}
				sort.Ints(out[i].Distances)
			}
		}
	}
	return out, tests, nil
}

func appendUnique(xs []int, x int) []int {
	for _, v := range xs {
		if v == x {
			return xs
		}
	}
	return append(xs, x)
}

// ClassCounts tallies a classification result.
func ClassCounts(cs []ClassifiedVictim) map[CouplingKind]int {
	counts := make(map[CouplingKind]int)
	for _, c := range cs {
		counts[c.Kind]++
	}
	return counts
}
