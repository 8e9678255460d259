package dram

import (
	"fmt"
	"math/bits"
	"testing"

	"parbor/internal/coupling"
	"parbor/internal/faults"
	"parbor/internal/scramble"
)

// The differential proof suite: the mask-plane read path
// (readRowPlanes) must flip exactly the bits the scalar per-cell
// reference (readRowScalar) flips, for every geometry, polarity,
// fault kind, and elapsed time. Both paths are always compiled and
// all stochastic draws are keyed per (pass, flat row, column), so the
// two can be evaluated back to back against the same chip state and
// compared bit for bit — no fixtures, no tolerance.

// diffPattern fills words with one of a few adversarial patterns; the
// "rand" pattern derives per-word content from a cheap LCG so padded
// tail bits and asymmetric neighborhoods get exercised too.
func diffPattern(words []uint64, kind string, seed uint64) {
	x := seed*2862933555777941757 + 3037000493
	for i := range words {
		switch kind {
		case "zeros":
			words[i] = 0
		case "ones":
			words[i] = ^uint64(0)
		case "aa":
			words[i] = 0xaaaaaaaaaaaaaaaa
		case "rand":
			x = x*6364136223846793005 + 1442695040888963407
			words[i] = x ^ x>>29
		default:
			panic("unknown pattern " + kind)
		}
	}
}

// comparePaths evaluates both read paths for every row of the chip at
// its current clock and reports any divergence in flip set or toggle
// count. It reads through the internal entry points so the comparison
// sees the exact same (stored, elapsed, meta) state for both.
func comparePaths(t *testing.T, c *Chip, label string) (flips int) {
	t.Helper()
	g := c.geom
	scalar := make([]uint64, c.words)
	planes := make([]uint64, c.words)
	for bank := 0; bank < g.Banks; bank++ {
		for row := 0; row < g.Rows; row++ {
			idx := c.geom.rowIndex(bank, row)
			stored := c.data[idx*c.words : (idx+1)*c.words]
			elapsed := c.nowMs - c.chargeTime(idx)
			if elapsed <= 0 {
				continue
			}
			m := c.rowMetaFor(idx)
			for i := range scalar {
				scalar[i], planes[i] = 0, 0
			}
			ns := c.readRowScalar(row, idx, elapsed, stored, scalar, m)
			np := c.readRowPlanes(row, idx, elapsed, stored, planes, m)
			if ns != np {
				t.Errorf("%s: bank %d row %d: scalar toggled %d bits, planes %d", label, bank, row, ns, np)
			}
			for w := range scalar {
				if scalar[w] != planes[w] {
					t.Errorf("%s: bank %d row %d word %d: scalar delta %016x, planes %016x (xor %016x)",
						label, bank, row, w, scalar[w], planes[w], scalar[w]^planes[w])
				}
			}
			flips += ns
		}
	}
	return flips
}

// compareCellPaths evaluates both single-cell read paths at col for
// every row of the chip at its current clock and reports any row where
// either disagrees with the scalar row read's toggle at col.
func compareCellPaths(t *testing.T, c *Chip, col int, label string) {
	t.Helper()
	g := c.geom
	delta := make([]uint64, c.words)
	for bank := 0; bank < g.Banks; bank++ {
		for row := 0; row < g.Rows; row++ {
			idx := c.geom.rowIndex(bank, row)
			stored := c.data[idx*c.words : (idx+1)*c.words]
			elapsed := c.nowMs - c.chargeTime(idx)
			if elapsed <= 0 {
				continue
			}
			m := c.rowMetaFor(idx)
			clear(delta)
			c.readRowScalar(row, idx, elapsed, stored, delta, m)
			want := getBit(delta, col)
			if got := c.readCellScalar(row, idx, col, elapsed, stored, m); got != want {
				t.Errorf("%s: bank %d row %d col %d: scalar cell toggle %d, row toggle %d", label, bank, row, col, got, want)
			}
			if got := c.readCellPlanes(row, idx, col, elapsed, stored, m); got != want {
				t.Errorf("%s: bank %d row %d col %d: planes cell toggle %d, row toggle %d", label, bank, row, col, got, want)
			}
		}
	}
}

// diffCase is one chip configuration of the differential matrix.
type diffCase struct {
	name   string
	geom   Geometry
	vendor scramble.Vendor
	cc     coupling.Config
	fc     faults.Config
}

func diffCases() []diffCase {
	dense := coupling.DefaultConfig()
	dense.VulnerableRate = 0.05 // many victims per word: exercises shared-word masks and ext overflow
	surround := coupling.DefaultConfig()
	surround.VulnerableRate = 0.02
	surround.SurroundWeights = []float64{0.2, 0.4, 0.4} // aggregate-interference tails
	shortRet := coupling.DefaultConfig()
	shortRet.VulnerableRate = 0.02
	shortRet.RetentionMinMs, shortRet.RetentionMaxMs = 50, 400 // all victims in the fast tier
	vrtHot := faults.DefaultConfig()
	vrtHot.VRTRate, vrtHot.VRTToggleProb = 5e-3, 0.5
	vrtHot.MarginalRate, vrtHot.MarginalFailProb = 5e-3, 0.5
	vrtHot.WeakCellRate = 5e-3
	remapHot := faults.DefaultConfig()
	remapHot.RemappedColumnRate, remapHot.RemappedFailProb = 0.01, 0.5
	// Fault kinds so dense that many cells carry two or three kinds, or
	// a kind and a victim: their toggles must cancel pairwise.
	overlap := faults.DefaultConfig()
	overlap.VRTRate, overlap.VRTToggleProb = 0.2, 0.5
	overlap.MarginalRate, overlap.MarginalFailProb = 0.2, 0.5
	overlap.WeakCellRate = 0.2

	return []diffCase{
		{
			name:   "vendorA-default",
			geom:   Geometry{Banks: 2, Rows: 32, Cols: 1024},
			vendor: scramble.VendorA,
			cc:     coupling.DefaultConfig(),
			fc:     faults.DefaultConfig(),
		},
		{
			name:   "vendorB-dense",
			geom:   Geometry{Banks: 1, Rows: 32, Cols: 2048},
			vendor: scramble.VendorB,
			cc:     dense,
			fc:     faults.DefaultConfig(),
		},
		{
			name:   "vendorC-surround",
			geom:   Geometry{Banks: 1, Rows: 32, Cols: 1024},
			vendor: scramble.VendorC,
			cc:     surround,
			fc:     faults.Config{},
		},
		{
			name:   "toy-padded-cols", // Cols % 64 != 0: last word padded
			geom:   Geometry{Banks: 1, Rows: 32, Cols: 1104},
			vendor: scramble.VendorToy,
			cc:     dense,
			fc:     faults.DefaultConfig(),
		},
		{
			name:   "toy-vrt-hot",
			geom:   Geometry{Banks: 1, Rows: 32, Cols: 512},
			vendor: scramble.VendorToy,
			cc:     shortRet,
			fc:     vrtHot,
		},
		{
			name:   "toy-fault-overlap",
			geom:   Geometry{Banks: 1, Rows: 32, Cols: 512},
			vendor: scramble.VendorToy,
			cc:     shortRet,
			fc:     overlap,
		},
		{
			name:   "vendorA-remapped",
			geom:   Geometry{Banks: 1, Rows: 32, Cols: 2048},
			vendor: scramble.VendorA,
			cc:     dense,
			fc:     remapHot,
		},
	}
}

// TestReadRowPlanesMatchScalarOracle holds the plane path to
// bit-identity with the scalar oracle across the full configuration
// matrix: every vendor profile, true and anti rows, padded last
// words, every fault kind, dense shared-word victim populations, and
// elapsed times straddling every retention gate (the 64/200/300 ms
// fault thresholds, the tier split, and the 3000 ms upper bound).
func TestReadRowPlanesMatchScalarOracle(t *testing.T) {
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, pattern := range []string{"zeros", "ones", "aa", "rand"} {
				chip, err := newChip(ChipConfig{
					Geometry: tc.geom,
					Vendor:   tc.vendor,
					Coupling: tc.cc,
					Faults:   tc.fc,
					Seed:     917,
				})
				if err != nil {
					t.Fatalf("NewChip: %v", err)
				}
				words := make([]uint64, chip.geom.Words())
				for bank := 0; bank < tc.geom.Banks; bank++ {
					for row := 0; row < tc.geom.Rows; row++ {
						diffPattern(words, pattern, uint64(bank*tc.geom.Rows+row))
						chip.WriteRow(bank, row, words)
					}
				}
				// Cumulative waits walk elapsed time across every gate:
				// 32 (below everything), 96 (VRT only), 240 (marginal),
				// 330 (weak), 700 (past the tier split), 3200 (all).
				flips := 0
				for _, wait := range []float64{32, 64, 144, 90, 370, 2500} {
					chip.wait(wait)
					flips += comparePaths(t, chip, fmt.Sprintf("%s/%s/wait=%v", tc.name, pattern, wait))
				}
				if pattern == "rand" && flips == 0 {
					// Uniform patterns legitimately never couple (every
					// neighbor shares the victim's charge), and 0xaa never
					// fails on even-distance vendors — but random content
					// must produce failures somewhere in the matrix, or
					// the comparison is vacuous.
					t.Errorf("%s/%s: zero flips across all waits — differential test exercised nothing", tc.name, pattern)
				}
			}
		})
	}
}

// TestReadRowDeltaMatchesReadRow checks the public contract tying the
// two read APIs together: ReadRow's materialized read-back equals
// stored XOR ReadRowDelta's toggles, the toggle count equals the
// popcount of the delta, and a clean row leaves the delta buffer
// untouched.
func TestReadRowDeltaMatchesReadRow(t *testing.T) {
	cc := coupling.DefaultConfig()
	cc.VulnerableRate = 0.05
	chip, err := newChip(ChipConfig{
		Geometry: Geometry{Banks: 1, Rows: 32, Cols: 1104}, // padded last word
		Vendor:   scramble.VendorToy,
		Coupling: cc,
		Faults:   faults.DefaultConfig(),
		Seed:     31,
	})
	if err != nil {
		t.Fatalf("NewChip: %v", err)
	}
	g := chip.geom
	words := make([]uint64, g.Words())
	for row := 0; row < g.Rows; row++ {
		diffPattern(words, "rand", uint64(row))
		chip.WriteRow(0, row, words)
	}
	chip.wait(700)
	got := make([]uint64, g.Words())
	delta := make([]uint64, g.Words())
	sawFlip := false
	for row := 0; row < g.Rows; row++ {
		chip.ReadRow(0, row, got)
		for i := range delta {
			delta[i] = 0
		}
		n := chip.ReadRowDelta(0, row, delta)
		idx := chip.FlatRowIndex(0, row)
		stored := chip.data[idx*chip.words : (idx+1)*chip.words]
		pop := 0
		for w := range got {
			if got[w] != stored[w]^delta[w] {
				t.Errorf("row %d word %d: ReadRow %016x != stored^delta %016x", row, w, got[w], stored[w]^delta[w])
			}
			pop += bits.OnesCount64(delta[w])
		}
		if n != pop {
			t.Errorf("row %d: ReadRowDelta returned %d, delta popcount %d", row, n, pop)
		}
		if n > 0 {
			sawFlip = true
		}
	}
	if !sawFlip {
		t.Error("no row produced a failure; the delta contract was not exercised")
	}

	// Clean-row guarantee: before any retention wait, the delta buffer
	// must come back untouched even when pre-filled with sentinels is
	// not allowed — so verify the zero-cost contract with a fresh write.
	diffPattern(words, "rand", 99)
	chip.WriteRow(0, 0, words)
	for i := range delta {
		delta[i] = 0
	}
	if n := chip.ReadRowDelta(0, 0, delta); n != 0 {
		t.Fatalf("freshly written row toggled %d bits", n)
	}
	for w := range delta {
		if delta[w] != 0 {
			t.Fatalf("zero-toggle read wrote to the delta buffer at word %d", w)
		}
	}
}

// TestReadCellMatchesReadRow checks the public contract of the
// single-cell read: at every column of every row, ReadCell returns the
// bit ReadRow reads back, across the differential matrix (every
// vendor, padded last words, dense victims, every fault kind) with
// soft errors frequent enough to fire. It runs on whichever read path
// the build selects, so CI's parborscalar step holds the scalar cell
// read to the scalar row read too.
func TestReadCellMatchesReadRow(t *testing.T) {
	for _, tc := range diffCases() {
		t.Run(tc.name, func(t *testing.T) {
			tc.fc.SoftErrorPerRowRead = 0.5
			chip, err := newChip(ChipConfig{Geometry: tc.geom, Vendor: tc.vendor, Coupling: tc.cc, Faults: tc.fc, Seed: 917})
			if err != nil {
				t.Fatalf("NewChip: %v", err)
			}
			g := chip.geom
			words := make([]uint64, g.Words())
			for bank := 0; bank < g.Banks; bank++ {
				for row := 0; row < g.Rows; row++ {
					diffPattern(words, "rand", uint64(bank*g.Rows+row))
					chip.WriteRow(bank, row, words)
				}
			}
			got := make([]uint64, g.Words())
			flips := 0
			for _, wait := range []float64{32, 64, 144, 90, 370, 2500} {
				chip.wait(wait)
				for bank := 0; bank < g.Banks; bank++ {
					for row := 0; row < g.Rows; row++ {
						chip.ReadRow(bank, row, got)
						idx := chip.FlatRowIndex(bank, row)
						stored := chip.data[idx*chip.words : (idx+1)*chip.words]
						for col := 0; col < g.Cols; col++ {
							want := getBit(got, col)
							if cell := chip.ReadCell(bank, row, col); cell != want {
								t.Fatalf("wait %v bank %d row %d col %d: ReadCell %d, ReadRow %d", wait, bank, row, col, cell, want)
							}
							if want != getBit(stored, col) {
								flips++
							}
						}
					}
				}
			}
			if flips == 0 {
				t.Error("no cell flipped; the contract was not exercised")
			}
		})
	}
}

// FuzzVictimPlanes drives the differential comparison from fuzzed
// geometry, content, wait schedules and a probed column. Any
// divergence between the scalar oracle and the plane path — a missed
// flip, an extra flip, a count mismatch, or a single-cell read that
// disagrees with the row read at the probed column — fails the fuzz
// target.
func FuzzVictimPlanes(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint64(0xaaaaaaaaaaaaaaaa), uint16(700), uint16(5))
	f.Add(uint64(2), uint8(1), uint8(3), uint64(0), uint16(96), uint16(200))
	f.Add(uint64(3), uint8(2), uint8(1), uint64(0x0123456789abcdef), uint16(3200), uint16(1000))
	f.Add(uint64(4), uint8(3), uint8(2), ^uint64(0), uint16(250), uint16(63))
	f.Fuzz(func(t *testing.T, seed uint64, geomSel, vendorSel uint8, fill uint64, waitMs, probe uint16) {
		vendors := []scramble.Vendor{scramble.VendorToy, scramble.VendorA, scramble.VendorB, scramble.VendorC}
		vendor := vendors[int(vendorSel)%len(vendors)]
		// Chunk-compatible column counts per vendor; the Toy profile
		// (16-bit chunks) also exercises Cols % 64 != 0.
		var colsChoices []int
		if vendor == scramble.VendorToy {
			colsChoices = []int{96, 368, 1024}
		} else {
			colsChoices = []int{256, 1152}
		}
		cols := colsChoices[int(geomSel)%len(colsChoices)]
		cc := coupling.DefaultConfig()
		cc.VulnerableRate = 0.05
		fc := faults.DefaultConfig()
		fc.VRTRate, fc.VRTToggleProb = 2e-3, 0.5
		fc.WeakCellRate = 2e-3
		fc.RemappedColumnRate, fc.RemappedFailProb = 2e-3, 0.5
		chip, err := newChip(ChipConfig{
			Geometry: Geometry{Banks: 1, Rows: 8, Cols: cols},
			Vendor:   vendor,
			Coupling: cc,
			Faults:   fc,
			Seed:     seed,
		})
		if err != nil {
			t.Fatalf("NewChip: %v", err)
		}
		words := make([]uint64, chip.geom.Words())
		for row := 0; row < chip.geom.Rows; row++ {
			x := fill ^ seed*uint64(row+1)
			for i := range words {
				x = x*6364136223846793005 + 1442695040888963407
				words[i] = fill ^ x>>17
			}
			chip.WriteRow(0, row, words)
		}
		// Two reads at different elapsed times: the fuzzed wait and a
		// follow-up that crosses whatever gate the first stopped short
		// of. Both must match the oracle exactly.
		col := int(probe) % cols
		chip.wait(float64(waitMs))
		comparePaths(t, chip, "fuzz-wait1")
		compareCellPaths(t, chip, col, "fuzz-wait1")
		chip.wait(float64(waitMs)/2 + 97)
		comparePaths(t, chip, "fuzz-wait2")
		compareCellPaths(t, chip, col, "fuzz-wait2")
	})
}

// TestPlaneArenaFitsSmallChip bounds the plane arena of a fleet-sized
// chip (32 rows of 8K columns, fleet coupling density). Blocks grow
// geometrically, so the arena reserves at most about twice what the
// rows use, plus one minimum block per type; a fixed 4096-element
// first block per type used to reserve several times that.
func TestPlaneArenaFitsSmallChip(t *testing.T) {
	cc := coupling.DefaultConfig()
	cc.VulnerableRate = 2e-3
	geom := Geometry{Banks: 1, Rows: 32, Cols: 8192}
	for _, v := range []scramble.Vendor{scramble.VendorA, scramble.VendorB, scramble.VendorC} {
		c, err := newChip(ChipConfig{Geometry: geom, Vendor: v, Coupling: cc, Faults: faults.DefaultConfig(), Seed: 41})
		if err != nil {
			t.Fatal(err)
		}
		used := 0
		for flat := 0; flat < geom.Rows; flat++ {
			c.rowMetaFor(flat)
			p := &c.planes[flat]
			used += len(p.fast) + len(p.slow) + len(p.ext) + len(p.pairs) + len(p.fcells)
		}
		a := &c.arena
		reserved := a.entries.reserved + a.ext.reserved + a.pairs.reserved + a.fcells.reserved
		t.Logf("vendor %v: %d plane elements used, %d reserved", v, used, reserved)
		if used == 0 {
			t.Fatalf("vendor %v: no plane elements; the bound is vacuous", v)
		}
		// 64 elements: the smallest block of each of the four types.
		if limit := 2*used + 4*64; reserved > limit {
			t.Errorf("vendor %v: arena reserves %d elements for %d used, want at most %d", v, reserved, used, limit)
		}
	}
}
