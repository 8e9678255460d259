package patterns

import (
	"testing"
	"testing/quick"
)

func fillBuf(p Pattern, words int) []uint64 {
	buf := make([]uint64, words)
	p.Fill(0, 0, 0, buf)
	return buf
}

func bitOf(buf []uint64, i int) uint64 { return (buf[i/64] >> uint(i%64)) & 1 }

func TestDiscoveryPatternCount(t *testing.T) {
	ps := DiscoveryPatterns()
	if len(ps) != 5 {
		t.Fatalf("DiscoveryPatterns() returned %d patterns, want 5 (10 tests with inverses)", len(ps))
	}
}

func TestSolidAndInverse(t *testing.T) {
	ps := []Pattern{Solid()}
	buf := fillBuf(ps[0], 4)
	for i, w := range buf {
		if w != 0 {
			t.Errorf("solid word %d = %x, want 0", i, w)
		}
	}
	inv := fillBuf(ps[0].Inverse(), 4)
	for i, w := range inv {
		if w != ^uint64(0) {
			t.Errorf("solid~ word %d = %x, want all ones", i, w)
		}
	}
}

func TestCheckerAlternates(t *testing.T) {
	buf := fillBuf(stripe("checker", 1), 2)
	for i := 0; i < 127; i++ {
		if bitOf(buf, i) == bitOf(buf, i+1) {
			t.Fatalf("checker bits %d and %d equal", i, i+1)
		}
	}
}

func TestStripeWidths(t *testing.T) {
	for _, width := range []int{8, 16, 32, 64} {
		p := stripe("s", width)
		buf := fillBuf(p, 4)
		for i := 0; i < 256; i++ {
			want := uint64((i / width) % 2)
			if got := bitOf(buf, i); got != want {
				t.Fatalf("width %d: bit %d = %d, want %d", width, i, got, want)
			}
		}
	}
}

// TestStripesSeparateVendorDistances checks the design intent of the
// discovery set: for every distance of every vendor profile, at least
// one discovery pattern places opposite values at that distance.
func TestStripesSeparateVendorDistances(t *testing.T) {
	ps := DiscoveryPatterns()
	for _, d := range []int{1, 5, 8, 16, 32, 33, 40, 48, 49, 64, 96} {
		found := false
		for _, p := range ps {
			buf := fillBuf(p, 4)
			for o := 0; o+d < 256; o++ {
				if bitOf(buf, o) != bitOf(buf, o+d) {
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			t.Errorf("no discovery pattern separates distance %d", d)
		}
	}
}

func TestRandomDeterministicPerPass(t *testing.T) {
	a := fillBuf(Random(1, 3), 8)
	b := fillBuf(Random(1, 3), 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Random pattern not deterministic")
		}
	}
	c := fillBuf(Random(1, 4), 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different passes produced identical random data")
	}
}

func TestRandomVariesByRow(t *testing.T) {
	p := Random(1, 0)
	a := make([]uint64, 4)
	b := make([]uint64, 4)
	p.Fill(0, 0, 0, a)
	p.Fill(0, 0, 1, b)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Error("different rows produced identical random data")
	}
}

func TestNeighborAwareRoundCounts(t *testing.T) {
	tests := []struct {
		name      string
		distances []int
		chunk     int
		want      int
	}{
		{name: "vendor A", distances: []int{-48, -16, -8, 8, 16, 48}, chunk: 128, want: 16},
		{name: "vendor B", distances: []int{-64, -1, 1, 64}, chunk: 128, want: 16},
		{name: "vendor C", distances: []int{-49, -33, -16, 16, 33, 49}, chunk: 128, want: 16},
		{name: "toy", distances: []int{-5, -1, 1, 5}, chunk: 16, want: 16},
		{name: "linear", distances: []int{-1, 1}, chunk: 128, want: 16},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ps, err := NeighborAware(tt.distances, tt.chunk)
			if err != nil {
				t.Fatalf("NeighborAware: %v", err)
			}
			if len(ps) != tt.want {
				t.Errorf("rounds = %d, want %d", len(ps), tt.want)
			}
		})
	}
}

// TestNeighborAwareCoverage re-verifies the covering property from
// the outside: for every offset there must be a round charging it
// while discharging all candidate neighbors.
func TestNeighborAwareCoverage(t *testing.T) {
	cases := [][]int{
		{8, 16, 48},
		{1, 64},
		{16, 33, 49},
		{1},
		{3, 7, 11}, // odd custom set, exercises the fallback path
	}
	const chunk = 128
	for _, dists := range cases {
		ps, err := NeighborAware(dists, chunk)
		if err != nil {
			t.Fatalf("NeighborAware(%v): %v", dists, err)
		}
		bufs := make([][]uint64, len(ps))
		for i, p := range ps {
			bufs[i] = fillBuf(p, chunk/64)
		}
		for o := 0; o < chunk; o++ {
			covered := false
			for _, buf := range bufs {
				if bitOf(buf, o) == 0 {
					continue
				}
				ok := true
				for _, d := range dists {
					if o+d < chunk && bitOf(buf, o+d) == 1 {
						ok = false
					}
					if o-d >= 0 && bitOf(buf, o-d) == 1 {
						ok = false
					}
				}
				if ok {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("distances %v: offset %d never covered", dists, o)
			}
		}
	}
}

func TestNeighborAwareCompact(t *testing.T) {
	// Vendor C's distance set admits the paper's 8-round class scheme.
	ps, err := NeighborAwareCompact([]int{-49, -33, -16, 16, 33, 49}, 128)
	if err != nil {
		t.Fatalf("NeighborAwareCompact: %v", err)
	}
	if len(ps) != 8 {
		t.Errorf("compact rounds = %d, want 8 (paper, Section 7.2)", len(ps))
	}
	// Coverage of the immediate neighbors must still hold.
	bufs := make([][]uint64, len(ps))
	for i, p := range ps {
		bufs[i] = fillBuf(p, 2)
	}
	dists := []int{16, 33, 49}
	for o := 0; o < 128; o++ {
		covered := false
		for _, buf := range bufs {
			if bitOf(buf, o) == 0 {
				continue
			}
			ok := true
			for _, d := range dists {
				if o+d < 128 && bitOf(buf, o+d) == 1 {
					ok = false
				}
				if o-d >= 0 && bitOf(buf, o-d) == 1 {
					ok = false
				}
			}
			if ok {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("compact: offset %d never covered", o)
		}
	}
	// Vendor B's set (distance 1 < 8) cannot use the class scheme and
	// must fall back to the safe generator.
	ps, err = NeighborAwareCompact([]int{-64, -1, 1, 64}, 128)
	if err != nil {
		t.Fatalf("NeighborAwareCompact(B): %v", err)
	}
	if len(ps) != 16 {
		t.Errorf("compact B rounds = %d, want 16 (fallback)", len(ps))
	}
	// A distance that is an exact multiple of 64 collides with the
	// class scheme and must also fall back.
	ps, err = NeighborAwareCompact([]int{64, 16}, 128)
	if err != nil {
		t.Fatalf("NeighborAwareCompact(64): %v", err)
	}
	if len(ps) != 16 {
		t.Errorf("compact {64,16} rounds = %d, want 16 (fallback)", len(ps))
	}
}

func TestNeighborAwareErrors(t *testing.T) {
	if _, err := NeighborAware(nil, 128); err == nil {
		t.Error("empty distances accepted")
	}
	if _, err := NeighborAware([]int{1}, 0); err == nil {
		t.Error("zero chunk accepted")
	}
	if _, err := NeighborAware([]int{200}, 128); err == nil {
		t.Error("distance beyond chunk accepted")
	}
}

// TestInverseIsInvolution: applying Inverse twice restores the
// original pattern for arbitrary rows.
func TestInverseIsInvolution(t *testing.T) {
	p := Random(2, 1)
	pp := p.Inverse().Inverse()
	f := func(row uint16) bool {
		a := make([]uint64, 4)
		b := make([]uint64, 4)
		p.Fill(0, 0, int(row), a)
		pp.Fill(0, 0, int(row), b)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromChunkMaskReplication(t *testing.T) {
	mask := []uint64{0x00000000000000ff, 0xff00000000000000}
	p := fromChunkMask("m", mask)
	buf := fillBuf(p, 6)
	for i, w := range buf {
		if w != mask[i%2] {
			t.Errorf("word %d = %x, want %x", i, w, mask[i%2])
		}
	}
}

func TestChunkForDistances(t *testing.T) {
	tests := []struct {
		dists []int
		want  int
	}{
		{dists: []int{-48, 48}, want: 128},
		{dists: []int{-64, -1, 1, 64}, want: 128},
		{dists: []int{1}, want: 16},
		{dists: []int{-5, 5}, want: 16},
		{dists: []int{100}, want: 256},
	}
	for _, tt := range tests {
		if got := ChunkFor(tt.dists); got != tt.want {
			t.Errorf("ChunkFor(%v) = %d, want %d", tt.dists, got, tt.want)
		}
	}
}
