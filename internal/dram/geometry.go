package dram

import "fmt"

// Geometry describes the addressable layout of one DRAM chip.
type Geometry struct {
	// Banks is the number of banks per chip.
	Banks int
	// Rows is the number of rows per bank.
	Rows int
	// Cols is the number of cells (bits) per row. The paper's chips
	// have 8192 cells per row.
	Cols int
}

// Address-space limits enforced by Validate. Column and flat-row
// addresses are carried as int32 throughout the simulator
// (coupling.Victim.Col, faults.Cell.Col, the resolved neighborhoods
// in dram's row metadata), so geometries beyond them would silently
// truncate. They are representation limits only: the per-event rng
// keying chains one At derivation per field and is collision-free for
// any geometry (see the keying invariant on Chip).
const (
	// MaxCols is the largest accepted row width, in cells.
	MaxCols = 1 << 30
	// MaxFlatRows is the largest accepted Banks*Rows product.
	MaxFlatRows = 1 << 30
)

// Validate reports whether the geometry is usable. Cols need not be a
// multiple of 64: the last storage word of each row is padded, and the
// read/compare paths mask the padding bits out.
func (g Geometry) Validate() error {
	if g.Banks <= 0 || g.Rows <= 0 || g.Cols <= 0 {
		return fmt.Errorf("dram: geometry %+v has non-positive dimension", g)
	}
	if g.Cols > MaxCols {
		return fmt.Errorf("dram: Cols = %d exceeds the int32 address space (max %d)", g.Cols, MaxCols)
	}
	if flat := int64(g.Banks) * int64(g.Rows); flat > MaxFlatRows {
		return fmt.Errorf("dram: Banks*Rows = %d exceeds the int32 address space (max %d)", flat, MaxFlatRows)
	}
	return nil
}

// Words returns the number of 64-bit words per row. When Cols is not
// a multiple of 64, the high bits of the last word are padding: never
// addressable through getBit/setBit/flipBit, masked out of every
// mismatch comparison.
func (g Geometry) Words() int { return (g.Cols + 63) / 64 }

// LastWordMask returns the mask of valid (non-padding) bits in the
// last storage word of a row: all ones when Cols is a multiple of 64.
// Comparison paths (memctl's mismatch scan, the read-back oracles in
// tests) AND the final word of both sides with it before diffing.
func (g Geometry) LastWordMask() uint64 {
	if r := g.Cols % 64; r != 0 {
		return (uint64(1) << uint(r)) - 1
	}
	return ^uint64(0)
}

// RowCount returns the total number of rows in the chip.
func (g Geometry) RowCount() int { return g.Banks * g.Rows }

// rowIndex flattens a (bank, row) pair.
func (g Geometry) rowIndex(bank, row int) int { return bank*g.Rows + row }

// ExperimentGeometry is the scaled-down chip used by the reproduction
// experiments: real 2 Gbit chips (8 banks x 32K rows x 8K cols) are
// too large to simulate per-pass, so the experiments use one bank
// with 2048 full-width rows and proportionally increased failure
// rates (documented in EXPERIMENTS.md).
func ExperimentGeometry() Geometry {
	return Geometry{Banks: 1, Rows: 2048, Cols: 8192}
}

// getBit returns bit i of the row bitmap.
func getBit(words []uint64, i int) uint64 {
	return (words[i>>6] >> (uint(i) & 63)) & 1
}

// setBit sets bit i of the row bitmap to v (0 or 1).
func setBit(words []uint64, i int, v uint64) {
	mask := uint64(1) << (uint(i) & 63)
	if v != 0 {
		words[i>>6] |= mask
	} else {
		words[i>>6] &^= mask
	}
}

// flipBit inverts bit i of the row bitmap.
func flipBit(words []uint64, i int) {
	words[i>>6] ^= uint64(1) << (uint(i) & 63)
}
