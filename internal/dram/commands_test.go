package dram

import (
	"testing"

	"parbor/internal/coupling"
	"parbor/internal/faults"
	"parbor/internal/obs"
	"parbor/internal/scramble"
)

// TestCommandsFlushToAttachedRecorder: row accesses only count until
// FlushCommands delivers them to the chip's recorder, activates
// always equal writes plus reads, and a single-cell read counts as one
// row read.
func TestCommandsFlushToAttachedRecorder(t *testing.T) {
	col := obs.NewCollector()
	c, err := newChip(ChipConfig{
		Geometry: Geometry{Banks: 1, Rows: 64, Cols: 1024},
		Vendor:   scramble.VendorToy,
		Coupling: coupling.Config{VulnerableRate: 0, RetentionMinMs: 1, RetentionMaxMs: 1},
		Faults:   faults.Config{},
		Seed:     1234,
		Recorder: col,
	})
	if err != nil {
		t.Fatalf("newChip: %v", err)
	}
	buf := make([]uint64, c.geom.Words())

	c.WriteRow(0, 1, buf)
	c.ReadRow(0, 1, buf)
	if n := col.Snapshot("test").Commands["activate"]; n != 0 {
		t.Fatalf("%d activates reached the recorder before a flush", n)
	}
	c.ReadRowDelta(0, 2, make([]uint64, c.geom.Words()))
	c.ReadCell(0, 3, 5)
	c.FlushCommands()
	c.FlushCommands() // nothing pending: a no-op

	cmds := col.Snapshot("test").Commands
	if w, r, a := cmds["write"], cmds["read"], cmds["activate"]; w != 1 || r != 3 || a != 4 {
		t.Errorf("%d writes, %d reads, %d activates; want 1, 3, 4", w, r, a)
	}
}
