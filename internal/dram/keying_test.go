package dram

import (
	"testing"

	"parbor/internal/coupling"
	"parbor/internal/faults"
	"parbor/internal/scramble"
)

// TestLargeGeometryDrawsIndependent is the regression test for the
// packed-key collision: the per-event seed used to be
// pass<<32 | flat<<13 | col, so for any geometry with >= 2^13 columns
// the marginal/VRT draw of (flat=1, col=c) collided with that of
// (flat=0, col=8192+c) — two distinct cells sharing one Bernoulli
// stream. With chained At keying the two rows must flip
// independently.
func TestLargeGeometryDrawsIndependent(t *testing.T) {
	chip, err := newChip(ChipConfig{
		Geometry: Geometry{Banks: 1, Rows: 2, Cols: 16384},
		Vendor:   scramble.VendorA,
		Coupling: coupling.Config{RetentionMinMs: 1, RetentionMaxMs: 1},
		// Every cell marginal, coin-flip failure: the flip pattern of a
		// 64-cell window is a 64-bit fingerprint of the underlying
		// stream.
		Faults: faults.Config{MarginalRate: 1, MarginalFailProb: 0.5},
		Seed:   4242,
	})
	if err != nil {
		t.Fatalf("NewChip: %v", err)
	}
	words := make([]uint64, chip.geom.Words())
	fillOnes(words) // rows 0 and 1 are both true-cell rows: all-ones is all-charged
	chip.WriteRow(0, 0, words)
	chip.WriteRow(0, 1, words)
	chip.wait(250) // past the 200 ms marginal retention threshold

	got0 := make([]uint64, len(words))
	got1 := make([]uint64, len(words))
	chip.ReadRow(0, 0, got0)
	chip.ReadRow(0, 1, got1)

	// The colliding pair under the old packing: (flat=1, cols 0..63)
	// vs (flat=0, cols 8192..8255). col 8192 starts word 128.
	flipsRow1 := got1[0] ^ words[0]
	flipsRow0 := got0[128] ^ words[128]
	if flipsRow1 == flipsRow0 {
		t.Errorf("cells (row 1, cols 0..63) and (row 0, cols 8192..8255) drew identical flip patterns %016x — per-event streams are correlated", flipsRow1)
	}
	// Sanity: the fingerprints only mean anything if the injector ran.
	if flipsRow1 == 0 || flipsRow0 == 0 {
		t.Errorf("marginal injector produced no flips (row1 %016x, row0 %016x); fingerprint comparison is vacuous", flipsRow1, flipsRow0)
	}
}

// TestVRTTogglesIgnoreMaterializationOrder checks that VRT draws are a
// pure function of (seed, pass, row, cell): which rows happen to have
// materialized metadata, and in what order reads arrive within a pass,
// must be unobservable. The old implementation drew one sequential
// stream per pass over the currently materialized VRT rows in Wait, so
// a chip with a different materialization history (e.g. one rebuilt by
// checkpoint resume with an empty meta cache) diverged.
func TestVRTTogglesIgnoreMaterializationOrder(t *testing.T) {
	const rows = 16
	mk := func() *Chip {
		chip, err := newChip(ChipConfig{
			Geometry: Geometry{Banks: 1, Rows: 64, Cols: 1024},
			Vendor:   scramble.VendorToy,
			Coupling: coupling.Config{RetentionMinMs: 1, RetentionMaxMs: 1},
			Faults:   faults.Config{VRTRate: 0.05, VRTToggleProb: 0.5},
			Seed:     9001,
		})
		if err != nil {
			t.Fatalf("NewChip: %v", err)
		}
		return chip
	}
	a, b := mk(), mk()

	// Chip B materializes a scattered set of unrelated rows before any
	// write: under the old per-pass sequential stream this changed the
	// draw order for every later pass.
	for _, r := range []int{63, 31, 5, 47, 2} {
		b.TrueVictims(0, r)
	}

	words := make([]uint64, a.geom.Words())
	fillOnes(words)
	for r := 0; r < rows; r++ {
		a.WriteRow(0, r, words)
		b.WriteRow(0, r, words)
	}
	a.wait(100) // past the 64 ms VRT retention threshold
	b.wait(100)

	gotA := make([][]uint64, rows)
	for r := 0; r < rows; r++ {
		gotA[r] = make([]uint64, len(words))
		a.ReadRow(0, r, gotA[r])
	}
	// Chip B reads the same rows in reverse, re-reading each: keyed
	// draws make a same-pass re-read idempotent.
	gotB := make([]uint64, len(words))
	again := make([]uint64, len(words))
	flips := 0
	for r := rows - 1; r >= 0; r-- {
		b.ReadRow(0, r, gotB)
		b.ReadRow(0, r, again)
		for w := range gotB {
			if gotB[w] != again[w] {
				t.Fatalf("row %d word %d changed between two reads in the same pass", r, w)
			}
			if gotB[w] != gotA[r][w] {
				t.Fatalf("row %d word %d differs across materialization orders: %x != %x", r, w, gotB[w], gotA[r][w])
			}
			if gotB[w] != words[w] {
				flips++
			}
		}
	}
	if flips == 0 {
		t.Error("no VRT flips at 5% rate over 16 rows; the comparison exercised nothing")
	}
}

// TestVRTDrawsVaryAcrossPasses guards against over-correcting: the
// keyed draws must still be fresh per pass, not frozen per cell.
func TestVRTDrawsVaryAcrossPasses(t *testing.T) {
	chip := testChip(t, coupling.Config{RetentionMinMs: 1, RetentionMaxMs: 1},
		faults.Config{VRTRate: 0.2, VRTToggleProb: 0.5})
	words := make([]uint64, chip.geom.Words())
	fillOnes(words)
	got := make([]uint64, len(words))

	var patterns [][]uint64
	for pass := 0; pass < 8; pass++ {
		chip.WriteRow(0, 0, words)
		chip.wait(100)
		chip.ReadRow(0, 0, got)
		patterns = append(patterns, append([]uint64(nil), got...))
	}
	varied := false
	for _, p := range patterns[1:] {
		for w := range p {
			if p[w] != patterns[0][w] {
				varied = true
			}
		}
	}
	if !varied {
		t.Error("8 passes over a 20% VRT row produced identical flip patterns every time — per-pass keying is frozen")
	}
}
