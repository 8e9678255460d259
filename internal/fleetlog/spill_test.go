package fleetlog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"parbor/internal/memctl"
)

// compareSorted is the reference the radix sort must reproduce: a
// comparison sort in bytewise order, then Compact.
func compareSorted(keys []spillKey) []spillKey {
	ref := slices.Clone(keys)
	slices.SortFunc(ref, func(a, b spillKey) int { return bytes.Compare(a[:], b[:]) })
	return slices.Compact(ref)
}

// checkSortedMem sorts a copy of keys through sortedMem and compares
// the result, key by key, with compareSorted.
func checkSortedMem(t *testing.T, label string, keys []spillKey) {
	t.Helper()
	want := compareSorted(keys)
	s := &spillSet{mem: slices.Clone(keys)}
	got := s.sortedMem()
	if len(got) != len(want) {
		t.Fatalf("%s: %d keys sorted to %d distinct, want %d", label, len(keys), len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: key %d of %d is %x, want %x", label, i, len(want), got[i], want[i])
		}
	}
}

// randomKeys returns n keys whose bytes are drawn from alphabet (all
// 256 values when alphabet is nil).
func randomKeys(r *rand.Rand, n int, alphabet []byte) []spillKey {
	keys := make([]spillKey, n)
	for i := range keys {
		for j := range keys[i] {
			if alphabet == nil {
				keys[i][j] = byte(r.Intn(256))
			} else {
				keys[i][j] = alphabet[r.Intn(len(alphabet))]
			}
		}
	}
	return keys
}

// analyticsWeakCells draws the weak-cell population of the analytics
// benchmark's log: 2,000 modules with up to 10 weak cells each, in the
// first 1,024 rows of 8 chips of 8K columns.
func analyticsWeakCells(r *rand.Rand) [][]memctl.BitAddr {
	weak := make([][]memctl.BitAddr, 2000)
	for m := range weak {
		for j := r.Intn(11); j > 0; j-- {
			weak[m] = append(weak[m], memctl.BitAddr{Chip: int16(r.Intn(8)), Row: int32(r.Intn(1024)), Col: int32(r.Intn(8192))})
		}
	}
	return weak
}

// analyticsKeys returns n observation keys shaped like the analytics
// benchmark's log: every weak cell (analyticsWeakCells) fails in about
// half the epochs, and the keys arrive epoch by epoch.
func analyticsKeys(n int) []spillKey {
	r := rand.New(rand.NewSource(5))
	weak := analyticsWeakCells(r)
	keys := make([]spillKey, 0, n)
	for epoch := uint32(1); ; epoch++ {
		for m, cells := range weak {
			for _, a := range cells {
				if r.Intn(2) == 0 {
					keys = append(keys, packObs(uint32(m), a, epoch))
					if len(keys) == n {
						return keys
					}
				}
			}
		}
	}
}

// TestRadixSortMatchesCompare: sortedMem yields exactly the keys a
// comparison sort plus Compact yields, on the shapes that stress an
// MSD radix sort: no keys, one bucket for every byte, keys that split
// only at the first or only at the last byte, the classifier's
// zero-padded epoch keys, buckets either side of the insertion-sort
// cutoff, and heavy duplication.
func TestRadixSortMatchesCompare(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	var one spillKey
	binary.BigEndian.PutUint64(one[3:], 0x0123456789abcdef)
	cases := map[string][]spillKey{
		"empty":          nil,
		"one key":        {one},
		"100k identical": make([]spillKey, 100_000),
		"random":         randomKeys(r, 50_000, nil),
		"few values":     randomKeys(r, 50_000, []byte{0, 1, 255}),
		"analytics":      analyticsKeys(200_000),
	}
	for i := range cases["100k identical"] {
		cases["100k identical"][i] = one
	}
	firstOnly := make([]spillKey, 10_000)
	lastOnly := make([]spillKey, 10_000)
	for i := range firstOnly {
		firstOnly[i], lastOnly[i] = one, one
		firstOnly[i][0] = byte(r.Intn(256))
		lastOnly[i][keyBytes-1] = byte(r.Intn(256))
	}
	cases["first byte only"] = firstOnly
	cases["last byte only"] = lastOnly
	epochs := make([]spillKey, 30_000)
	for i := range epochs {
		epochs[i] = packEpoch(uint32(r.Intn(300)), uint32(1+r.Intn(200)))
	}
	cases["epoch keys"] = epochs
	for _, n := range []int{radixCutoff - 1, radixCutoff, radixCutoff + 1} {
		cases[fmt.Sprintf("random %d", n)] = randomKeys(r, n, nil)
		cases[fmt.Sprintf("few values %d", n)] = randomKeys(r, n, []byte{0, 7})
		// A bucket of exactly n keys one level down: a shared first
		// byte, then n keys that split at the second.
		bucket := randomKeys(r, n+200, nil)
		for i := range bucket {
			if i < n {
				bucket[i][0] = 0x42
			} else if bucket[i][0] == 0x42 {
				bucket[i][0] = 0x43
			}
		}
		cases[fmt.Sprintf("bucket of %d", n)] = bucket
	}
	for label, keys := range cases {
		checkSortedMem(t, label, keys)
	}
}

// FuzzSpillSortMatchesCompare: any bytes, cut into keys, sort and
// deduplicate exactly as the comparison sort does.
func FuzzSpillSortMatchesCompare(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 3*keyBytes))
	for _, n := range []int{2, radixCutoff + 1, 4 * radixCutoff} {
		var seed []byte
		for _, k := range analyticsKeys(n) {
			seed = append(seed, k[:]...)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		keys := make([]spillKey, len(data)/keyBytes)
		for i := range keys {
			copy(keys[i][:], data[i*keyBytes:])
		}
		checkSortedMem(t, "fuzz", keys)
	})
}
