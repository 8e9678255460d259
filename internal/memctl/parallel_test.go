package memctl

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"parbor/internal/coupling"
	"parbor/internal/dram"
	"parbor/internal/faults"
	"parbor/internal/obs"
	"parbor/internal/scramble"
)

// failyModule builds a module with a dense failure population so the
// determinism tests compare non-trivial failure sets.
func failyModule(t *testing.T, v scramble.Vendor, seed uint64) *dram.Module {
	t.Helper()
	return recordedFailyModule(t, v, seed, nil)
}

// recordedFailyModule is failyModule with rec attached to every chip.
func recordedFailyModule(t *testing.T, v scramble.Vendor, seed uint64, rec obs.Recorder) *dram.Module {
	t.Helper()
	cc := coupling.DefaultConfig()
	cc.VulnerableRate = 5e-3
	mod, err := dram.NewModule(dram.ModuleConfig{
		Name:     fmt.Sprintf("par-%d-%d", v, seed),
		Vendor:   v,
		Chips:    4,
		Geometry: dram.Geometry{Banks: 2, Rows: 32, Cols: 1024},
		Coupling: cc,
		Faults:   faults.DefaultConfig(),
		Seed:     seed,
		Recorder: rec,
	})
	if err != nil {
		t.Fatalf("NewModule: %v", err)
	}
	return mod
}

func checker(_ Row, buf []uint64) []uint64 {
	for i := range buf {
		buf[i] = 0xaaaaaaaaaaaaaaaa
	}
	return buf
}

// TestFullPassParallelMatchesSerial is the tentpole's determinism
// guarantee: for every vendor and several seeds, a host sharding its
// per-chip sweeps across a worker pool must return exactly the
// []BitAddr the serial host returns — same order, same contents —
// and that order must be sorted by (chip, bank, row, col).
func TestFullPassParallelMatchesSerial(t *testing.T) {
	for _, v := range scramble.Vendors() {
		for _, seed := range []uint64{1, 7, 42} {
			serialHost, err := NewHostWithConfig(failyModule(t, v, seed), HostConfig{WaitMs: 512, Parallelism: 1})
			if err != nil {
				t.Fatalf("serial host: %v", err)
			}
			parHost, err := NewHostWithConfig(failyModule(t, v, seed), HostConfig{WaitMs: 512, Parallelism: 8})
			if err != nil {
				t.Fatalf("parallel host: %v", err)
			}
			for pass := 0; pass < 3; pass++ {
				want, err := serialHost.FullPass(context.Background(), checker, 512)
				if err != nil {
					t.Fatalf("serial full pass: %v", err)
				}
				got, err := parHost.FullPass(context.Background(), checker, 512)
				if err != nil {
					t.Fatalf("parallel full pass: %v", err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("vendor %v seed %d pass %d: parallel fullpass diverged (%d vs %d failures)",
						v, seed, pass, len(got), len(want))
				}
				if pass == 0 && len(want) == 0 {
					t.Fatalf("vendor %v seed %d: degenerate test, no failures at all", v, seed)
				}
				if !sort.SliceIsSorted(want, func(i, j int) bool { return bitAddrLess(want[i], want[j]) }) {
					t.Fatalf("vendor %v seed %d: fullpass output not sorted by chip/bank/row/col", v, seed)
				}
			}
		}
	}
}

func bitAddrLess(a, b BitAddr) bool {
	if a.Chip != b.Chip {
		return a.Chip < b.Chip
	}
	if a.Bank != b.Bank {
		return a.Bank < b.Bank
	}
	if a.Row != b.Row {
		return a.Row < b.Row
	}
	return a.Col < b.Col
}

// TestPassParallelMatchesSerial covers the row-list path (Pass)
// including rows interleaved across chips in
// caller-chosen order, and the Verify path on the same rows.
func TestPassParallelMatchesSerial(t *testing.T) {
	for _, v := range scramble.Vendors() {
		for _, seed := range []uint64{3, 11} {
			serialHost, err := NewHostWithConfig(failyModule(t, v, seed), HostConfig{WaitMs: 512, Parallelism: 1})
			if err != nil {
				t.Fatalf("serial host: %v", err)
			}
			parHost, err := NewHostWithConfig(failyModule(t, v, seed), HostConfig{WaitMs: 512, Parallelism: 8})
			if err != nil {
				t.Fatalf("parallel host: %v", err)
			}
			words := serialHost.Geometry().Words()
			var rows []Row
			var data [][]uint64
			// Deliberately interleave chips and banks out of order.
			for _, r := range []Row{
				{Chip: 3, Bank: 1, Row: 5}, {Chip: 0, Bank: 0, Row: 9},
				{Chip: 2, Bank: 0, Row: 1}, {Chip: 0, Bank: 1, Row: 30},
				{Chip: 1, Bank: 1, Row: 17}, {Chip: 3, Bank: 0, Row: 2},
				{Chip: 2, Bank: 1, Row: 31}, {Chip: 1, Bank: 0, Row: 0},
			} {
				buf := make([]uint64, words)
				for i := range buf {
					buf[i] = ^uint64(0)
				}
				rows = append(rows, r)
				data = append(data, buf)
			}
			want, err := serialHost.Pass(context.Background(), rows, data, 512)
			if err != nil {
				t.Fatalf("serial pass: %v", err)
			}
			got, err := parHost.Pass(context.Background(), rows, data, 512)
			if err != nil {
				t.Fatalf("parallel pass: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("vendor %v seed %d: parallel pass diverged (%d vs %d failures)", v, seed, len(got), len(want))
			}

			wantV, err := serialHost.Verify(context.Background(), rows, data, 512)
			if err != nil {
				t.Fatalf("serial verify: %v", err)
			}
			gotV, err := parHost.Verify(context.Background(), rows, data, 512)
			if err != nil {
				t.Fatalf("parallel verify: %v", err)
			}
			if !reflect.DeepEqual(gotV, wantV) {
				t.Fatalf("vendor %v seed %d: parallel verify diverged (%d vs %d failures)", v, seed, len(gotV), len(wantV))
			}
		}
	}
}

// TestHostConfigValidation pins the HostConfig error cases and the
// effective parallelism cap.
func TestHostConfigValidation(t *testing.T) {
	mod := failyModule(t, scramble.VendorA, 1)
	if _, err := NewHostWithConfig(mod, HostConfig{Parallelism: -1}); err == nil {
		t.Error("negative parallelism accepted")
	}
	if _, err := NewHostWithConfig(nil, HostConfig{}); err == nil {
		t.Error("nil module accepted")
	}
	if _, err := NewHostWithConfig(mod, HostConfig{WaitMs: -1}); err == nil {
		t.Error("negative wait accepted")
	}
	h, err := NewHostWithConfig(mod, HostConfig{Parallelism: 64})
	if err != nil {
		t.Fatalf("NewHostWithConfig: %v", err)
	}
	if got := h.Parallelism(); got != mod.Chips() {
		t.Errorf("Parallelism() = %d, want capped at %d chips", got, mod.Chips())
	}
	if h.WaitMs() != DefaultWaitMs {
		t.Errorf("WaitMs() = %v, want default %v", h.WaitMs(), DefaultWaitMs)
	}
}

// TestFullPassGenPanicPropagates checks that a panic in the caller's
// RowSource still reaches the caller instead of wedging or killing the
// process: as the pass's error when it fires on a pool worker, and as
// a panic on the calling goroutine on the serial path.
func TestFullPassGenPanicPropagates(t *testing.T) {
	panicky := func(Row, []uint64) []uint64 { panic("bad source") }
	h, err := NewHostWithConfig(failyModule(t, scramble.VendorA, 1), HostConfig{WaitMs: 64, Parallelism: 4})
	if err != nil {
		t.Fatalf("NewHostWithConfig: %v", err)
	}
	if _, err := h.FullPass(context.Background(), panicky, h.WaitMs()); err == nil || !strings.Contains(err.Error(), "bad source") {
		t.Errorf("sharded source panic returned %v, want an error carrying the panic", err)
	}

	serial, err := NewHostWithConfig(failyModule(t, scramble.VendorA, 1), HostConfig{WaitMs: 64, Parallelism: 1})
	if err != nil {
		t.Fatalf("NewHostWithConfig: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("serial source panic did not propagate")
		}
	}()
	_, _ = serial.FullPass(context.Background(), panicky, serial.WaitMs())
}
