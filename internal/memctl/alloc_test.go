package memctl

import (
	"context"
	"testing"

	"parbor/internal/coupling"
	"parbor/internal/dram"
	"parbor/internal/faults"
	"parbor/internal/scramble"
)

// allocHost builds a host whose steady-state passes deterministically
// see zero failures: fault injection is limited to VRT cells (so
// Chip.Wait still exercises the VRT index every pass), the data is
// all-zero, and the tested rows are true-cell rows, whose cells are
// discharged under zero data and therefore can never flip — every
// retention failure is gated on the cell holding charge.
func allocHost(t testing.TB, parallelism int) (*Host, []Row, [][]uint64) {
	t.Helper()
	mod, err := dram.NewModule(dram.ModuleConfig{
		Vendor:   scramble.VendorA,
		Chips:    4,
		Geometry: dram.Geometry{Banks: 1, Rows: 64, Cols: 1024},
		Coupling: coupling.Config{VulnerableRate: 0, RetentionMinMs: 1, RetentionMaxMs: 1},
		Faults:   faults.Config{VRTRate: 0.01, VRTToggleProb: 0.5},
		Seed:     7,
	})
	if err != nil {
		t.Fatalf("NewModule: %v", err)
	}
	host, err := NewHostWithConfig(mod, HostConfig{WaitMs: 64, Parallelism: parallelism})
	if err != nil {
		t.Fatalf("NewHostWithConfig: %v", err)
	}
	zero := make([]uint64, host.Geometry().Words())
	var rows []Row
	var data [][]uint64
	for chip := 0; chip < host.Chips(); chip++ {
		for r := 0; r < 64; r += 4 { // true-cell rows: (row>>1)&1 == 0
			rows = append(rows, Row{Chip: chip, Bank: 0, Row: r})
			data = append(data, zero)
		}
	}
	return host, rows, data
}

// TestPassZeroAllocsSteadyState pins the tentpole property of the
// pass hot loop: once the host's scratch and the chips' row metadata
// are warm, a serial Pass performs zero heap allocations, and a
// sharded Pass allocates only the fixed worker-pool overhead
// (independent of the row count).
func TestPassZeroAllocsSteadyState(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		host, rows, data := allocHost(t, 1)
		for i := 0; i < 3; i++ { // warm scratch, row metadata, map buckets
			if _, err := host.Pass(context.Background(), rows, data, host.WaitMs()); err != nil {
				t.Fatalf("warm pass: %v", err)
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			fails, err := host.Pass(context.Background(), rows, data, host.WaitMs())
			if err != nil {
				t.Fatalf("Pass: %v", err)
			}
			if len(fails) != 0 {
				t.Fatalf("unexpected failures: %v", fails)
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state serial Pass allocated %.1f objects/op, want 0", allocs)
		}
	})

	t.Run("sharded", func(t *testing.T) {
		host, rows, data := allocHost(t, 4)
		for i := 0; i < 3; i++ {
			if _, err := host.Pass(context.Background(), rows, data, host.WaitMs()); err != nil {
				t.Fatalf("warm pass: %v", err)
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			fails, err := host.Pass(context.Background(), rows, data, host.WaitMs())
			if err != nil {
				t.Fatalf("Pass: %v", err)
			}
			if len(fails) != 0 {
				t.Fatalf("unexpected failures: %v", fails)
			}
		})
		// The bounded pool allocates a fixed set of objects per sweep
		// (goroutines, channels, sync plumbing) regardless of how many
		// rows the pass touches. The budget has headroom over the
		// ~30 observed; what it must catch is per-row or per-pass
		// scratch regressions, which show up in the hundreds.
		const budget = 96
		if allocs > budget {
			t.Fatalf("steady-state sharded Pass allocated %.1f objects/op, want <= %d (fixed pool overhead only)", allocs, budget)
		}
	})
}

// TestVerifyZeroAllocsSteadyState extends the steady-state guarantee
// to the write-free Verify path used by March tests.
func TestVerifyZeroAllocsSteadyState(t *testing.T) {
	host, rows, data := allocHost(t, 1)
	for i := 0; i < 3; i++ {
		if _, err := host.Pass(context.Background(), rows, data, host.WaitMs()); err != nil {
			t.Fatalf("warm pass: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		fails, err := host.Verify(context.Background(), rows, data, 64)
		if err != nil {
			t.Fatalf("Verify: %v", err)
		}
		if len(fails) != 0 {
			t.Fatalf("unexpected failures: %v", fails)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Verify allocated %.1f objects/op, want 0", allocs)
	}
}
