// Package scramble models DRAM-internal address scrambling: the
// vendor-specific mapping between system bit addresses and the
// physical location of cells inside the DRAM arrays (PARBOR paper,
// Sections 1 and 3).
//
// The mapping is represented as a set of disjoint physical *segments*
// per aligned system-address chunk. A segment is an ordered list of
// system bit offsets; consecutive entries are physically adjacent
// cells on the same bitline group. Segments correspond to tile/lane
// boundaries inside the chip: cells at the two ends of a segment have
// only one physical neighbor.
//
// The mapping is chunk-local — a cell's physical neighbors always
// carry system addresses within the same aligned chunk — and identical
// across chunks, rows, and banks. This is the "regularity" property
// the paper's second key idea relies on (Section 4.2), and it is what
// real chips exhibit: the paper reports that all tested chips have all
// neighbors within ±64 bits, i.e. inside a 128-bit chunk.
//
// The three vendor profiles are reverse-engineered from the paper's
// published results so that they reproduce, exactly:
//
//   - the final neighbor-distance sets of Figure 11
//     (A: {±8,±16,±48}, B: {±1,±64}, C: {±16,±33,±49}),
//   - the per-level region-distance sets of Figure 11, and
//   - the per-level test counts of Table 1 (A: 90, B: 66, C: 90).
package scramble

import (
	"fmt"
	"sort"
	"strings"
)

// Vendor identifies an address-scrambling profile.
type Vendor int

// Vendor profiles. VendorA/B/C correspond to the three anonymized
// manufacturers in the paper. VendorLinear is an unscrambled identity
// mapping (what naive system-level tests implicitly assume), and
// VendorToy is the 16-bit example mapping of the paper's Figures 5
// and 8 (neighbor distances {±1, ±5}), used by the walkthrough
// example and small tests.
const (
	VendorLinear Vendor = iota + 1
	VendorA
	VendorB
	VendorC
	VendorToy
)

// String returns the short vendor label used in the paper's figures.
func (v Vendor) String() string {
	switch v {
	case VendorLinear:
		return "Linear"
	case VendorA:
		return "A"
	case VendorB:
		return "B"
	case VendorC:
		return "C"
	case VendorToy:
		return "Toy"
	default:
		return fmt.Sprintf("Vendor(%d)", int(v))
	}
}

// ParseVendor returns the profile whose String label is name, ignoring
// case: "A", "b", "linear", "Toy".
func ParseVendor(name string) (Vendor, error) {
	for v := VendorLinear; v <= VendorToy; v++ {
		if strings.EqualFold(name, v.String()) {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown vendor %q (want A, B, C, linear or toy)", name)
}

// Vendors lists the three real-chip profiles evaluated in the paper.
func Vendors() []Vendor { return []Vendor{VendorA, VendorB, VendorC} }

const (
	// DefaultChunkBits is the scrambling granularity of all three
	// vendor profiles: neighbors live within an aligned 128-bit
	// system chunk (paper, Section 7.2).
	DefaultChunkBits = 128

	// toyChunkBits is the chunk size of the paper's worked example
	// (Figures 5, 8, 9): a 16-bit row.
	toyChunkBits = 16

	none = -1 // absent neighbor marker in the lookup tables
)

// Mapping is an immutable system→physical address mapping for one
// vendor profile. A Mapping answers neighbor queries for arbitrary
// system bit addresses in O(1) via precomputed per-chunk tables.
//
// Mapping is safe for concurrent use.
type Mapping struct {
	vendor    Vendor
	chunkBits int
	segments  [][]int // per chunk: ordered system offsets of each physical segment

	left  []int16 // per chunk offset: offset of physical left neighbor, or none
	right []int16 // per chunk offset: offset of physical right neighbor, or none

	distances []int // sorted union of signed neighbor distances
}

// New returns the Mapping for the given vendor profile.
func New(v Vendor) (*Mapping, error) {
	var (
		segs  [][]int
		chunk int
	)
	switch v {
	case VendorLinear:
		chunk = DefaultChunkBits
		segs = linearSegments(chunk)
	case VendorA:
		chunk = DefaultChunkBits
		segs = vendorASegments()
	case VendorB:
		chunk = DefaultChunkBits
		segs = vendorBSegments()
	case VendorC:
		chunk = DefaultChunkBits
		segs = vendorCSegments()
	case VendorToy:
		chunk = toyChunkBits
		segs = toySegments()
	default:
		return nil, fmt.Errorf("scramble: unknown vendor %d", int(v))
	}
	m, err := FromSegments(v, chunk, segs)
	if err != nil {
		return nil, fmt.Errorf("scramble: building %v mapping: %w", v, err)
	}
	return m, nil
}

// FromSegments builds a custom Mapping from an explicit chunk-local
// segment list. Every system offset in [0, chunkBits) must appear in
// exactly one segment. This is the extension point for modeling chips
// beyond the three paper vendors.
func FromSegments(v Vendor, chunkBits int, segments [][]int) (*Mapping, error) {
	if chunkBits <= 0 {
		return nil, fmt.Errorf("chunkBits must be positive, got %d", chunkBits)
	}
	m := &Mapping{
		vendor:    v,
		chunkBits: chunkBits,
		segments:  segments,
		left:      make([]int16, chunkBits),
		right:     make([]int16, chunkBits),
	}
	for i := range m.left {
		m.left[i], m.right[i] = none, none
	}
	seen := make([]bool, chunkBits)
	distSet := make(map[int]struct{})
	for si, seg := range segments {
		if len(seg) == 0 {
			return nil, fmt.Errorf("segment %d is empty", si)
		}
		for pi, o := range seg {
			if o < 0 || o >= chunkBits {
				return nil, fmt.Errorf("segment %d: offset %d out of chunk range [0,%d)", si, o, chunkBits)
			}
			if seen[o] {
				return nil, fmt.Errorf("segment %d: offset %d appears more than once", si, o)
			}
			seen[o] = true
			if pi > 0 {
				prev := seg[pi-1]
				m.left[o] = int16(prev)
				m.right[prev] = int16(o)
				distSet[o-prev] = struct{}{}
				distSet[prev-o] = struct{}{}
			}
		}
	}
	for o, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("offset %d is not covered by any segment", o)
		}
	}
	for d := range distSet {
		m.distances = append(m.distances, d)
	}
	sort.Ints(m.distances)
	return m, nil
}

// Vendor returns the profile this mapping models.
func (m *Mapping) Vendor() Vendor { return m.vendor }

// ChunkBits returns the scrambling granularity in bits. Physical
// neighbors of a cell always have system addresses within the same
// aligned chunk of this size.
func (m *Mapping) ChunkBits() int { return m.chunkBits }

// Distances returns the sorted set of signed system-address distances
// at which a cell's physical neighbors can be located (the paper's
// Figure 8 representation). The returned slice is a copy.
func (m *Mapping) Distances() []int {
	out := make([]int, len(m.distances))
	copy(out, m.distances)
	return out
}

// Neighbors returns the system bit addresses of the physical left and
// right neighbors of the cell holding system bit sysBit. A neighbor
// is reported as (-1, false) when the cell sits at a segment end and
// has no physical neighbor on that side.
func (m *Mapping) Neighbors(sysBit int) (left, right int, hasLeft, hasRight bool) {
	base := sysBit - sysBit%m.chunkBits
	o := sysBit - base
	l, r := m.left[o], m.right[o]
	left, right = none, none
	if l != none {
		left, hasLeft = base+int(l), true
	}
	if r != none {
		right, hasRight = base+int(r), true
	}
	return left, right, hasLeft, hasRight
}

// Segments returns a deep copy of the chunk-local physical segments.
func (m *Mapping) Segments() [][]int {
	out := make([][]int, len(m.segments))
	for i, seg := range m.segments {
		out[i] = append([]int(nil), seg...)
	}
	return out
}

// linearSegments is the identity mapping: one contiguous segment.
func linearSegments(chunkBits int) [][]int {
	seg := make([]int, chunkBits)
	for i := range seg {
		seg[i] = i
	}
	return [][]int{seg}
}

// vendorASegments models manufacturer A: 8 DQ lanes per 128-bit
// chunk. System offset o = 8*m + lane; within a lane the 16 per-lane
// indices are laid out physically in the order below, whose adjacent
// deltas are {±1, ±2, ±6} — i.e. system distances {±8, ±16, ±48},
// matching Figure 11a and Table 1 (90 tests). The order balances the
// three delta magnitudes (6:4:5 pairs per lane) so that every true
// distance stays well above PARBOR's ranking threshold.
func vendorASegments() [][]int {
	order := [...]int{0, 1, 3, 9, 15, 14, 12, 13, 7, 6, 4, 5, 11, 10, 8, 2}
	segs := make([][]int, 0, 8)
	for lane := 0; lane < 8; lane++ {
		seg := make([]int, len(order))
		for i, mIdx := range order {
			seg[i] = 8*mIdx + lane
		}
		segs = append(segs, seg)
	}
	return segs
}

// vendorBSegments models manufacturer B: 8 segments of 16 cells per
// 128-bit chunk. Segment s zigzags between the aligned 8-bit system
// blocks s (offsets 8s..8s+7, the "low" block) and s+8 (offsets
// 8s+64..8s+71, the "high" block):
//
//	l0 h0 h1 l1 l2 h2 h3 l3 l4 h4 h5 l5 l6 h6 h7 l7
//
// Adjacent deltas are +64, +1, -64, +1, ... — system distances
// {±1, ±64} with balanced frequency (7 vs 8 pairs per segment), and
// ±1 pairs never straddle an aligned 8-bit region, which yields the
// L4 region-distance set {0, ±8} and Table 1's 66 tests.
func vendorBSegments() [][]int {
	segs := make([][]int, 0, 8)
	for s := 0; s < 8; s++ {
		low := 8 * s
		high := 8*s + 64
		seg := make([]int, 0, 16)
		// li and hi walk the low and high blocks in step.
		li, hi := 0, 0
		seg = append(seg, low+li) // l0
		for {
			seg = append(seg, high+hi, high+hi+1) // h_{2k}, h_{2k+1}
			hi += 2
			li++
			seg = append(seg, low+li) // l_{2k+1}
			if li == 7 {
				break
			}
			li++
			seg = append(seg, low+li) // l_{2k+2}
		}
		segs = append(segs, seg)
	}
	return segs
}

// toySegments is the worked-example mapping of the paper's Figures 5
// and 8: a 16-bit row in which every cell's neighbors are at system
// distances {±1, ±5}. Two physical arrays hold the even and odd
// bit-pairs of each burst with the pairs swapped:
//
//	array 1: X+1, X,   X+5, X+4, X+9,  X+8,  X+13, X+12
//	array 2: X+3, X+2, X+7, X+6, X+11, X+10, X+15, X+14
func toySegments() [][]int {
	return [][]int{
		{1, 0, 5, 4, 9, 8, 13, 12},
		{3, 2, 7, 6, 11, 10, 15, 14},
	}
}
