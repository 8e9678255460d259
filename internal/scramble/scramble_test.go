package scramble

import (
	"reflect"
	"strings"
	"testing"
)

func ints(xs ...int) []int { return xs }

// mustNew builds a built-in vendor mapping; those are statically valid.
func mustNew(v Vendor) *Mapping {
	m, err := New(v)
	if err != nil {
		panic(err)
	}
	return m
}

// distanceCounts returns, for each signed neighbor distance, the
// number of physically adjacent cell pairs per chunk realizing it.
func distanceCounts(m *Mapping) map[int]int {
	counts := make(map[int]int)
	for _, seg := range m.Segments() {
		for i := 1; i < len(seg); i++ {
			d := seg[i] - seg[i-1]
			counts[d]++
			counts[-d]++
		}
	}
	return counts
}

func TestVendorDistanceSets(t *testing.T) {
	tests := []struct {
		vendor Vendor
		want   []int
	}{
		{vendor: VendorLinear, want: ints(-1, 1)},
		{vendor: VendorA, want: ints(-48, -16, -8, 8, 16, 48)},
		{vendor: VendorB, want: ints(-64, -1, 1, 64)},
		{vendor: VendorC, want: ints(-49, -33, -16, 16, 33, 49)},
		{vendor: VendorToy, want: ints(-5, -1, 1, 5)},
	}
	for _, tt := range tests {
		t.Run(tt.vendor.String(), func(t *testing.T) {
			m := mustNew(tt.vendor)
			if got := m.Distances(); !reflect.DeepEqual(got, tt.want) {
				t.Errorf("Distances() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSegmentsCoverChunkExactlyOnce(t *testing.T) {
	for _, v := range []Vendor{VendorLinear, VendorA, VendorB, VendorC, VendorToy} {
		t.Run(v.String(), func(t *testing.T) {
			m := mustNew(v)
			seen := make(map[int]int)
			for _, seg := range m.Segments() {
				for _, o := range seg {
					seen[o]++
				}
			}
			if len(seen) != m.ChunkBits() {
				t.Fatalf("segments cover %d offsets, want %d", len(seen), m.ChunkBits())
			}
			for o, n := range seen {
				if n != 1 {
					t.Errorf("offset %d covered %d times", o, n)
				}
			}
		})
	}
}

// TestVendorCHasFewIsolatedCells checks that the greedy path-cover
// construction for vendor C leaves almost no cells without neighbors,
// since isolated cells can never exhibit data-dependent failures.
func TestVendorCHasFewIsolatedCells(t *testing.T) {
	m := mustNew(VendorC)
	isolated := 0
	for _, seg := range m.Segments() {
		if len(seg) == 1 {
			isolated++
		}
	}
	if isolated > m.ChunkBits()/10 {
		t.Errorf("%d of %d cells are isolated; want <= 10%%", isolated, m.ChunkBits())
	}
}

// TestDistanceFrequencyBalance checks that for every vendor, each
// true neighbor distance occurs often enough per chunk to clear
// PARBOR's ranking threshold (Section 5.2.4). A distance rarer than
// ~15% of the most frequent one risks being filtered as noise.
func TestDistanceFrequencyBalance(t *testing.T) {
	for _, v := range Vendors() {
		t.Run(v.String(), func(t *testing.T) {
			m := mustNew(v)
			counts := distanceCounts(m)
			max := 0
			for _, c := range counts {
				if c > max {
					max = c
				}
			}
			for d, c := range counts {
				if float64(c) < 0.15*float64(max) {
					t.Errorf("distance %+d occurs %d times vs max %d; too rare for ranking", d, c, max)
				}
			}
		})
	}
}

func TestNeighborsAreMutual(t *testing.T) {
	for _, v := range []Vendor{VendorLinear, VendorA, VendorB, VendorC, VendorToy} {
		t.Run(v.String(), func(t *testing.T) {
			m := mustNew(v)
			// Test across several chunks to exercise the chunk-base math.
			for base := 0; base < 3*m.ChunkBits(); base += m.ChunkBits() {
				for o := 0; o < m.ChunkBits(); o++ {
					bit := base + o
					l, r, hasL, hasR := m.Neighbors(bit)
					if hasL {
						_, rr, _, hasRR := m.Neighbors(l)
						if !hasRR || rr != bit {
							t.Fatalf("bit %d: left neighbor %d does not point back (right=%d, has=%v)", bit, l, rr, hasRR)
						}
					}
					if hasR {
						ll, _, hasLL, _ := m.Neighbors(r)
						if !hasLL || ll != bit {
							t.Fatalf("bit %d: right neighbor %d does not point back (left=%d, has=%v)", bit, r, ll, hasLL)
						}
					}
				}
			}
		})
	}
}

func TestNeighborsStayInChunk(t *testing.T) {
	for _, v := range []Vendor{VendorA, VendorB, VendorC} {
		m := mustNew(v)
		cb := m.ChunkBits()
		for o := 0; o < cb; o++ {
			bit := 5*cb + o // arbitrary chunk
			l, r, hasL, hasR := m.Neighbors(bit)
			if hasL && l/cb != bit/cb {
				t.Errorf("%v: bit %d left neighbor %d leaves chunk", v, bit, l)
			}
			if hasR && r/cb != bit/cb {
				t.Errorf("%v: bit %d right neighbor %d leaves chunk", v, bit, r)
			}
		}
	}
}

func TestFromSegmentsValidation(t *testing.T) {
	tests := []struct {
		name     string
		chunk    int
		segments [][]int
	}{
		{name: "empty segment", chunk: 4, segments: [][]int{{0, 1, 2, 3}, {}}},
		{name: "duplicate offset", chunk: 4, segments: [][]int{{0, 1}, {1, 2, 3}}},
		{name: "missing offset", chunk: 4, segments: [][]int{{0, 1, 2}}},
		{name: "out of range", chunk: 4, segments: [][]int{{0, 1, 2, 4}}},
		{name: "negative chunk", chunk: -1, segments: nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := FromSegments(VendorLinear, tt.chunk, tt.segments); err == nil {
				t.Error("FromSegments() succeeded, want error")
			}
		})
	}
}

func TestFromSegmentsCustom(t *testing.T) {
	m, err := FromSegments(VendorLinear, 4, [][]int{{2, 0}, {1, 3}})
	if err != nil {
		t.Fatalf("FromSegments: %v", err)
	}
	if got, want := m.Distances(), ints(-2, 2); !reflect.DeepEqual(got, want) {
		t.Errorf("Distances() = %v, want %v", got, want)
	}
	l, r, hasL, hasR := m.Neighbors(0)
	if !hasL || l != 2 {
		t.Errorf("Neighbors(0) left = %d,%v; want 2,true", l, hasL)
	}
	if hasR {
		t.Errorf("Neighbors(0) right = %d, want none", r)
	}
}

// TestToyMappingMatchesFigure8 verifies the worked example of the
// paper: in the Figure 5/8 mapping, the neighbors of system address X
// are at X+1 and X+5.
func TestToyMappingMatchesFigure8(t *testing.T) {
	m := mustNew(VendorToy)
	l, r, hasL, hasR := m.Neighbors(0)
	if !hasL || !hasR {
		t.Fatalf("Neighbors(0): expected both neighbors, got hasL=%v hasR=%v", hasL, hasR)
	}
	got := map[int]bool{l: true, r: true}
	if !got[1] || !got[5] {
		t.Errorf("Neighbors(0) = {%d,%d}, want {1,5}", l, r)
	}
}

func TestVendorString(t *testing.T) {
	if got := Vendor(99).String(); got != "Vendor(99)" {
		t.Errorf("Vendor(99).String() = %q", got)
	}
	if got := VendorA.String(); got != "A" {
		t.Errorf("VendorA.String() = %q", got)
	}
}

func TestNewUnknownVendor(t *testing.T) {
	if _, err := New(Vendor(42)); err == nil {
		t.Error("New(42) succeeded, want error")
	}
}

// TestParseVendor: every vendor's String label parses back to it, in
// any case, and an unknown name is an error.
func TestParseVendor(t *testing.T) {
	for _, v := range []Vendor{VendorLinear, VendorA, VendorB, VendorC, VendorToy} {
		for _, name := range []string{v.String(), strings.ToLower(v.String()), strings.ToUpper(v.String())} {
			got, err := ParseVendor(name)
			if err != nil || got != v {
				t.Errorf("ParseVendor(%q) = %v, %v; want %v", name, got, err, v)
			}
		}
	}
	for _, name := range []string{"", "samsung", "D", "Vendor(1)", "lin"} {
		if v, err := ParseVendor(name); err == nil {
			t.Errorf("ParseVendor(%q) = %v, want an error", name, v)
		}
	}
}
