package dram

import (
	"math/bits"
	"reflect"
	"testing"

	"parbor/internal/coupling"
	"parbor/internal/faults"
	"parbor/internal/scramble"
)

// weakChip builds a chip whose only failure mode is deterministic
// weak cells (they flip after 300 ms unrefreshed), the cleanest probe
// for refresh bookkeeping.
func weakChip(t *testing.T) *Chip {
	t.Helper()
	c, err := newChip(ChipConfig{
		Geometry: Geometry{Banks: 1, Rows: 16, Cols: 2048},
		Vendor:   scramble.VendorA,
		Coupling: coupling.Config{VulnerableRate: 0, RetentionMinMs: 1, RetentionMaxMs: 1},
		Faults:   faults.Config{WeakCellRate: 0.05},
		Seed:     21,
	})
	if err != nil {
		t.Fatalf("NewChip: %v", err)
	}
	return c
}

// chargedWord is the fully-charged data value for a row, accounting
// for its polarity: true-cell rows store charge as 1, anti-cell rows
// (rows 2,3 mod 4) as 0.
func chargedWord(row int) uint64 {
	if (row>>1)&1 == 1 {
		return 0
	}
	return ^uint64(0)
}

// writeOnes stores the fully-charged pattern into the row.
func writeOnes(c *Chip, bank, row int) {
	buf := make([]uint64, c.geom.Words())
	for i := range buf {
		buf[i] = chargedWord(row)
	}
	c.WriteRow(bank, row, buf)
}

// failCount reads the row back and counts bits that flipped from the
// fully-charged pattern.
func failCount(c *Chip, bank, row int) int {
	buf := make([]uint64, c.geom.Words())
	c.ReadRow(bank, row, buf)
	n := 0
	for _, w := range buf {
		n += bits.OnesCount64(w ^ chargedWord(row))
	}
	return n
}

// TestAutoRefreshLazyBookkeeping checks the lazy refresh-epoch
// semantics: rows excluded from refresh keep accumulating retention
// time across passes, rows covered by a refresh do not — without the
// chip ever scanning its full row population.
func TestAutoRefreshLazyBookkeeping(t *testing.T) {
	c := weakChip(t)
	writeOnes(c, 0, 0)
	writeOnes(c, 0, 1)

	paused := []int{c.FlatRowIndex(0, 0)}
	c.wait(200)
	c.AutoRefresh(paused)
	c.wait(200)
	c.AutoRefresh([]int{c.FlatRowIndex(0, 0)})

	// Row 0 has now sat unrefreshed for 400 ms > the 300 ms weak-cell
	// threshold; row 1 was refreshed 0 ms ago.
	if n := failCount(c, 0, 0); n == 0 {
		t.Error("paused row accumulated no weak-cell failures after 400 ms")
	}
	if n := failCount(c, 0, 1); n != 0 {
		t.Errorf("refreshed row shows %d failures, want 0", n)
	}
}

// TestAutoRefreshResumesPausedRow checks that a row excluded in one
// epoch but covered by the next is restored to full charge.
func TestAutoRefreshResumesPausedRow(t *testing.T) {
	c := weakChip(t)
	writeOnes(c, 0, 0)

	c.wait(200)
	c.AutoRefresh([]int{c.FlatRowIndex(0, 0)})
	c.wait(200)
	c.AutoRefresh(nil) // refresh everything, including row 0
	c.wait(100)

	// Only 100 ms since the last refresh: under the 300 ms threshold.
	if n := failCount(c, 0, 0); n != 0 {
		t.Errorf("resumed row shows %d failures, want 0", n)
	}
	// But pause it again and let it decay past the threshold.
	c.AutoRefresh([]int{c.FlatRowIndex(0, 0)})
	c.wait(300)
	if n := failCount(c, 0, 0); n == 0 {
		t.Error("re-paused row accumulated no failures after 300 ms")
	}
}

// TestAutoRefreshMatchesEagerSemantics replays a mixed pause/resume
// schedule and cross-checks every row against an eagerly maintained
// model of per-row charge times.
func TestAutoRefreshMatchesEagerSemantics(t *testing.T) {
	c := weakChip(t)
	g := c.geom
	eager := make([]float64, g.RowCount()) // model: last full-charge time per row
	now := 0.0
	for row := 0; row < g.Rows; row++ {
		writeOnes(c, 0, row)
	}
	schedule := []struct {
		waitMs float64
		except []int
	}{
		{100, []int{0, 1}},
		{150, []int{1, 2}},
		{50, nil},
		{400, []int{3}},
		{100, []int{3, 0}},
	}
	for _, step := range schedule {
		c.wait(step.waitMs)
		now += step.waitMs
		except := make([]int, 0, len(step.except))
		skip := make(map[int]bool)
		for _, r := range step.except {
			// Duplicate entries on purpose: AutoRefresh accepts them.
			except = append(except, c.FlatRowIndex(0, r), c.FlatRowIndex(0, r))
			skip[r] = true
		}
		c.AutoRefresh(except)
		for row := 0; row < g.Rows; row++ {
			if !skip[row] {
				eager[c.FlatRowIndex(0, row)] = now
			}
		}
	}
	c.wait(10)
	now += 10
	for row := 0; row < g.Rows; row++ {
		elapsed := now - eager[c.FlatRowIndex(0, row)]
		wantFails := elapsed >= 300 // weak-cell threshold
		if gotFails := failCount(c, 0, row) > 0; gotFails != wantFails {
			t.Errorf("row %d: elapsed %.0f ms, failures=%v, eager model says %v",
				row, elapsed, gotFails, wantFails)
		}
	}
}

// TestTrueVictimsCached checks that TrueVictims serves from the
// row-meta cache, returns stable results, and hands out a copy the
// caller may mutate.
func TestTrueVictimsCached(t *testing.T) {
	c, err := newChip(ChipConfig{
		Geometry: Geometry{Banks: 1, Rows: 8, Cols: 2048},
		Vendor:   scramble.VendorB,
		Coupling: coupling.DefaultConfig(),
		Seed:     5,
	})
	if err != nil {
		t.Fatalf("NewChip: %v", err)
	}
	cold := c.TrueVictims(0, 3) // materializes the row meta
	warm := c.TrueVictims(0, 3) // must serve the cached population
	if len(cold) == 0 {
		t.Fatal("no victims drawn with the default coupling config")
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("TrueVictims changed between calls")
	}
	warm[0].Col = -999
	if again := c.TrueVictims(0, 3); !reflect.DeepEqual(cold, again) {
		t.Fatal("mutating the returned slice corrupted the cache")
	}
}
