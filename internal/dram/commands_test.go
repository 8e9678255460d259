package dram

import (
	"testing"

	"parbor/internal/coupling"
	"parbor/internal/faults"
	"parbor/internal/obs"
)

// TestCommandsFlushToAttachedRecorder: row accesses only count until
// FlushCommands delivers them, and SetRecorder flushes first, so each
// recorder sees exactly the accesses made while it was attached and
// activates always equal writes plus reads. A single-cell read counts
// as one row read.
func TestCommandsFlushToAttachedRecorder(t *testing.T) {
	c := testChip(t, coupling.Config{VulnerableRate: 0, RetentionMinMs: 1, RetentionMaxMs: 1}, faults.Config{})
	first, second := obs.NewCollector(), obs.NewCollector()
	buf := make([]uint64, c.Geometry().Words())

	c.WriteRow(0, 0, buf) // no recorder attached: dropped at the next flush
	c.SetRecorder(first)
	c.WriteRow(0, 1, buf)
	c.ReadRow(0, 1, buf)
	if n := first.CommandCount(obs.CmdActivate); n != 0 {
		t.Fatalf("%d activates reached the recorder before a flush", n)
	}
	c.SetRecorder(second)
	c.ReadRowDelta(0, 2, make([]uint64, c.Geometry().Words()))
	c.ReadCell(0, 3, 5)
	c.FlushCommands()
	c.FlushCommands() // nothing pending: a no-op

	for _, tc := range []struct {
		name                    string
		col                     *obs.Collector
		writes, reads, activate uint64
	}{
		{"first", first, 1, 1, 2},
		{"second", second, 0, 2, 2},
	} {
		w, r, a := tc.col.CommandCount(obs.CmdWrite), tc.col.CommandCount(obs.CmdRead), tc.col.CommandCount(obs.CmdActivate)
		if w != tc.writes || r != tc.reads || a != tc.activate {
			t.Errorf("%s recorder: %d writes, %d reads, %d activates; want %d, %d, %d",
				tc.name, w, r, a, tc.writes, tc.reads, tc.activate)
		}
	}
}
