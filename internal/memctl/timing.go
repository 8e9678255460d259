package memctl

import (
	"time"

	"parbor/internal/dram"
)

// Timing holds the DRAM command timing constants used by the
// Appendix's test-time model. All values are in nanoseconds.
type Timing struct {
	// TRCD is the activate-to-read/write delay.
	TRCD float64
	// TCCD is the column-to-column delay (per 64-byte burst).
	TCCD float64
	// TRP is the precharge delay.
	TRP float64
}

// DDR3_1600 is the timing the paper uses (Appendix): tRCD = tRP =
// 13.75 ns, tCCD = 5 ns.
func DDR3_1600() Timing {
	return Timing{TRCD: 13.75, TCCD: 5, TRP: 13.75}
}

// rowAccessNs returns the time, in (possibly fractional)
// nanoseconds, to stream one module row of rowBytes through the
// controller: tRCD + tCCD per 64-byte cache block + tRP. For an 8 KB
// module row this is the Appendix's 13.75 + 5*128 + 13.75 = 667.5 ns.
// Aggregate estimates must accumulate this float and convert to
// time.Duration once: rounding the per-row time first loses half a
// nanosecond per row, which ModulePassTime would then multiply by the
// row count (130 µs per sweep of the paper's 2 GB module).
func (t Timing) rowAccessNs(rowBytes int) float64 {
	blocks := float64(rowBytes) / 64
	return t.TRCD + t.TCCD*blocks + t.TRP
}

// TwoBlockAccessTime returns the time to read or write two cache
// blocks of one row (the unit of the naive pairwise test): tRCD +
// 2*tCCD + tRP = 37.5 ns for DDR3-1600. (The paper's Appendix prints
// 42.5 ns for the same expression — an arithmetic slip that is
// irrelevant next to the 64 ms retention wait dominating each test.)
func (t Timing) TwoBlockAccessTime() time.Duration {
	ns := t.TRCD + 2*t.TCCD + t.TRP
	return time.Duration(ns * float64(time.Nanosecond))
}

// ModulePassTime returns the wall-clock duration of one write-wait-
// read pass over a whole module: write every row, wait the retention
// interval, read every row. A module row spans all chips, so its
// size is chips * per-chip row bits. The sweep cost is accumulated in
// float64 nanoseconds and converted to a time.Duration once, so the
// fractional per-row nanoseconds are not truncated away before the
// multiplication by the row count.
func (t Timing) ModulePassTime(g dram.Geometry, chips int, waitMs float64) time.Duration {
	rowBytes := chips * g.Cols / 8
	sweepNs := float64(g.RowCount()) * t.rowAccessNs(rowBytes)
	ns := 2*sweepNs + waitMs*1e6
	return time.Duration(ns * float64(time.Nanosecond))
}
