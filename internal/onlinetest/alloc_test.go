package onlinetest

import (
	"context"
	"runtime"
	"testing"

	"parbor/internal/coupling"
	"parbor/internal/dram"
	"parbor/internal/memctl"
	"parbor/internal/scramble"
)

// perRun mirrors testing.AllocsPerRun, reporting bytes as well as
// objects: one warm-up call, then the mean over runs calls at
// GOMAXPROCS 1.
func perRun(runs int, f func()) (bytes, objects float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs),
		float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestEpochAllocBudget pins the incremental failure sets: once a
// module's failures are all known, a steady-state epoch — followed by
// a State export, as the fleet checkpoints after every epoch —
// allocates the same number of bytes however large the known set is.
// The per-epoch cost depends on the rows tested and the cells found,
// never on the failures known from earlier sweeps.
func TestEpochAllocBudget(t *testing.T) {
	const chips, rows, perEpoch = 2, 160, 8
	mod, err := dram.NewModule(dram.ModuleConfig{
		Vendor:   scramble.VendorA,
		Chips:    chips,
		Geometry: dram.Geometry{Banks: 1, Rows: rows, Cols: 8192},
		// Deterministic failures (no noise models), so every sweep after
		// the first re-observes exactly the known set.
		Coupling: coupling.Config{
			VulnerableRate:  2e-3,
			StrongLeftFrac:  0.3,
			StrongRightFrac: 0.3,
			RetentionMinMs:  100,
			RetentionMaxMs:  100,
		},
		Seed: 61,
	})
	if err != nil {
		t.Fatal(err)
	}
	host, err := memctl.NewHostWithConfig(mod, memctl.HostConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(host, Config{Distances: vendorADistances, RowsPerEpoch: perEpoch})
	if err != nil {
		t.Fatal(err)
	}
	const epochs = chips * rows / perEpoch
	sweep := func(s *Scheduler) func() {
		return func() {
			for i := 0; i < epochs; i++ {
				res, err := s.RunEpoch(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if len(res.NewFailures) != 0 {
					t.Fatalf("steady-state epoch found %d new failures", len(res.NewFailures))
				}
				_ = s.State()
			}
		}
	}
	for i := 0; i < epochs; i++ { // the discovery sweep
		if _, err := s.RunEpoch(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	known := len(s.everSeen)
	if known < 3000 {
		t.Fatalf("only %d known failures; the budget is meant for a module with ~4k", known)
	}
	smallB, smallN := perRun(2, sweep(s))

	// The same module with its known set padded to 4x by cells no pass
	// can observe (bank 1 is outside the geometry). They sort between
	// chip 0's and chip 1's real cells.
	st := s.State()
	padded := make([]memctl.BitAddr, 0, 4*known)
	for _, a := range st.EverSeen {
		if a.Chip == 1 && len(padded) < 4*known-known/2 {
			for c := int32(0); len(padded) < 4*known-known/2; c++ {
				padded = append(padded, memctl.BitAddr{Chip: 0, Bank: 1, Row: c / 8192, Col: c % 8192})
			}
		}
		padded = append(padded, a)
	}
	st.EverSeen = padded
	big, err := Resume(host, st)
	if err != nil {
		t.Fatal(err)
	}
	bigB, bigN := perRun(2, sweep(big))

	perSmallB, perBigB := smallB/epochs, bigB/epochs
	t.Logf("%d known failures: %.0f B, %.1f objects per epoch; %d known: %.0f B, %.1f objects per epoch",
		known, perSmallB, smallN/epochs, len(padded), perBigB, bigN/epochs)
	if bigN > smallN+1 {
		t.Errorf("objects per sweep grew with the known set: %.1f -> %.1f", smallN, bigN)
	}
	// A few bytes of slack for the runtime's own bookkeeping; copying or
	// sorting the known set even once per sweep costs tens of kilobytes.
	if perBigB > perSmallB+64 {
		t.Errorf("bytes per epoch grew with the known set: %.0f -> %.0f", perSmallB, perBigB)
	}
	if setBytes := float64(known * 12); perSmallB > setBytes/4 {
		t.Errorf("a steady-state epoch allocates %.0f B, more than a quarter of the %d-cell known set", perSmallB, known)
	}
}
