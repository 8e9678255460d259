package memctl

import (
	"context"
	"reflect"
	"testing"

	"parbor/internal/coupling"
	"parbor/internal/dram"
	"parbor/internal/scramble"
)

// paddedModule is a module whose 96-cell rows leave 32 padding bits in
// the second storage word. The toy vendor's 16-bit scrambling chunk is
// the only one narrow enough for a non-multiple-of-64 width.
func paddedModule(t *testing.T) *dram.Module {
	t.Helper()
	mod, err := dram.NewModule(dram.ModuleConfig{
		Vendor:   scramble.VendorToy,
		Chips:    2,
		Geometry: dram.Geometry{Banks: 1, Rows: 16, Cols: 96},
		Coupling: coupling.Config{VulnerableRate: 0, RetentionMinMs: 1, RetentionMaxMs: 1},
		Seed:     5,
	})
	if err != nil {
		t.Fatalf("NewModule: %v", err)
	}
	return mod
}

// TestPaddedGeometryMasksPaddingBits: with Cols=96 the high 32 bits of
// word 1 are padding. A written buffer and a later expected buffer
// that differ ONLY in those bits must compare clean — padding bits are
// not cells and must never surface as failures.
func TestPaddedGeometryMasksPaddingBits(t *testing.T) {
	host, err := NewHost(paddedModule(t), 0)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	if got := host.Geometry().Words(); got != 2 {
		t.Fatalf("Words() = %d for Cols=96, want 2", got)
	}
	rows := []Row{{Chip: 0, Bank: 0, Row: 1}, {Chip: 1, Bank: 0, Row: 2}}
	written := []uint64{0xffffffffffffffff, 0xdead0000ffffffff} // garbage in padding
	fails, err := host.Pass(context.Background(), rows, [][]uint64{written, written}, host.WaitMs())
	if err != nil {
		t.Fatalf("Pass: %v", err)
	}
	if len(fails) != 0 {
		t.Fatalf("clean padded pass reported %v", fails)
	}

	// Same real cells, different padding bits.
	expected := []uint64{0xffffffffffffffff, 0x1234c0deffffffff}
	fails, err = host.Verify(context.Background(), rows, [][]uint64{expected, expected}, 1)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if len(fails) != 0 {
		t.Fatalf("padding-bit difference surfaced as failures: %v", fails)
	}
}

// TestPaddedGeometryReportsRealLastColumn: masking must stop exactly
// at the padding boundary — a genuine mismatch at the last real cell
// (col 95, bit 31 of word 1) is still a failure.
func TestPaddedGeometryReportsRealLastColumn(t *testing.T) {
	host, err := NewHost(paddedModule(t), 0)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	rows := []Row{{Chip: 0, Bank: 0, Row: 4}}
	written := []uint64{^uint64(0), ^uint64(0)}
	if _, err := host.Pass(context.Background(), rows, [][]uint64{written}, host.WaitMs()); err != nil {
		t.Fatalf("Pass: %v", err)
	}
	expected := []uint64{^uint64(0), ^uint64(0) &^ (1 << 31)} // col 95 expected 0, stored 1
	fails, err := host.Verify(context.Background(), rows, [][]uint64{expected}, 1)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	want := []BitAddr{{Chip: 0, Bank: 0, Row: 4, Col: 95}}
	if !reflect.DeepEqual(fails, want) {
		t.Fatalf("fails = %v, want %v", fails, want)
	}
	for _, f := range fails {
		if f.Col >= 96 {
			t.Fatalf("failure %v addresses a padding bit", f)
		}
	}
}

// bytesToWords packs b into n little-endian words, zero-padding.
func bytesToWords(b []byte, n int) []uint64 {
	out := make([]uint64, n)
	for i, v := range b {
		if i >= n*8 {
			break
		}
		out[i/8] |= uint64(v) << (8 * (i % 8))
	}
	return out
}

// FuzzAppendMismatches diffs the word-at-a-time mismatch scan against
// a naive per-bit oracle across arbitrary buffer contents and row
// widths, including widths that leave padding bits in the last word.
func FuzzAppendMismatches(f *testing.F) {
	f.Add(uint16(96), []byte{0xff, 0x01}, []byte{0x0f, 0x10})
	f.Add(uint16(64), []byte{}, []byte{0x80})
	f.Add(uint16(1), []byte{0x01}, []byte{0x02})
	f.Add(uint16(130), []byte{0xaa, 0xbb, 0xcc}, []byte{0xdd})
	f.Fuzz(func(t *testing.T, colsRaw uint16, wantB, gotB []byte) {
		cols := int(colsRaw)%512 + 1
		g := dram.Geometry{Banks: 1, Rows: 1, Cols: cols}
		words := g.Words()
		want := bytesToWords(wantB, words)
		got := bytesToWords(gotB, words)
		r := Row{Chip: 1, Bank: 2, Row: 3}

		fails := appendMismatches(nil, r, want, got, g.LastWordMask())

		var oracle []BitAddr
		for c := 0; c < cols; c++ {
			wb := (want[c/64] >> (c % 64)) & 1
			gb := (got[c/64] >> (c % 64)) & 1
			if wb != gb {
				oracle = append(oracle, BitAddr{Chip: 1, Bank: 2, Row: 3, Col: int32(c)})
			}
		}
		if !reflect.DeepEqual(fails, oracle) {
			t.Fatalf("cols=%d: appendMismatches = %v, oracle = %v", cols, fails, oracle)
		}
	})
}
