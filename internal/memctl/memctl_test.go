package memctl

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"parbor/internal/coupling"
	"parbor/internal/dram"
	"parbor/internal/faults"
	"parbor/internal/scramble"
)

func cleanModule(t *testing.T) *dram.Module {
	t.Helper()
	mod, err := dram.NewModule(dram.ModuleConfig{
		Vendor:   scramble.VendorA,
		Chips:    2,
		Geometry: dram.Geometry{Banks: 1, Rows: 16, Cols: 1024},
		Coupling: coupling.Config{VulnerableRate: 0, RetentionMinMs: 1, RetentionMaxMs: 1},
		Seed:     3,
	})
	if err != nil {
		t.Fatalf("NewModule: %v", err)
	}
	return mod
}

func weakModule(t *testing.T) *dram.Module {
	t.Helper()
	mod, err := dram.NewModule(dram.ModuleConfig{
		Vendor:   scramble.VendorA,
		Chips:    1,
		Geometry: dram.Geometry{Banks: 1, Rows: 64, Cols: 1024},
		Coupling: coupling.Config{VulnerableRate: 0, RetentionMinMs: 1, RetentionMaxMs: 1},
		Faults:   faults.Config{WeakCellRate: 0.01},
		Seed:     4,
	})
	if err != nil {
		t.Fatalf("NewModule: %v", err)
	}
	return mod
}

func TestPassNoFailuresOnCleanModule(t *testing.T) {
	host, err := NewHost(cleanModule(t), 0)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	data := make([]uint64, host.Geometry().Words())
	for i := range data {
		data[i] = 0xdeadbeefcafef00d
	}
	fails, err := host.Pass(context.Background(),
		[]Row{{Chip: 0, Bank: 0, Row: 3}, {Chip: 1, Bank: 0, Row: 5}},
		[][]uint64{data, data}, host.WaitMs(),
	)
	if err != nil {
		t.Fatalf("Pass: %v", err)
	}
	if len(fails) != 0 {
		t.Errorf("clean module produced %d failures", len(fails))
	}
	if host.Passes() != 1 {
		t.Errorf("Passes() = %d, want 1", host.Passes())
	}
}

func TestFullPassDetectsWeakCells(t *testing.T) {
	host, err := NewHost(weakModule(t), 0)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	// All-ones charges every true-cell row; weak cells in those rows
	// must flip and be reported with correct addresses.
	fails, err := host.FullPass(context.Background(), func(_ Row, buf []uint64) []uint64 {
		for i := range buf {
			buf[i] = ^uint64(0)
		}
		return buf
	}, host.WaitMs())
	if err != nil {
		t.Fatalf("FullPass: %v", err)
	}
	if len(fails) == 0 {
		t.Fatal("no failures detected on module with 1% weak cells")
	}
	g := host.Geometry()
	for _, f := range fails {
		if f.Chip != 0 || f.Bank != 0 || int(f.Row) >= g.Rows || int(f.Col) >= g.Cols {
			t.Fatalf("failure address out of range: %+v", f)
		}
	}
}

func TestPassValidation(t *testing.T) {
	host, err := NewHost(cleanModule(t), 0)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	if _, err := host.Pass(context.Background(), []Row{{}}, nil, 0); err == nil {
		t.Error("mismatched rows/data accepted")
	}
	if _, err := host.Pass(context.Background(), []Row{{}}, [][]uint64{make([]uint64, 3)}, 0); err == nil {
		t.Error("short data buffer accepted")
	}
	if _, err := host.Probe(context.Background(), []BitAddr{{}}, nil, 0); err == nil {
		t.Error("Probe: mismatched cells/data accepted")
	}
	if _, err := host.Probe(context.Background(), []BitAddr{{}}, [][]uint64{make([]uint64, 3)}, 0); err == nil {
		t.Error("Probe: short data buffer accepted")
	}
}

// TestOutOfRangeRowsRejected: rows arrive from outside the program
// (the parbor.Row facade), so a chip, bank or row outside the module
// must be an error naming the row — never a write that aliases another
// bank's row or a read off the end of the chip — and the rejection
// must come before any host or chip state moves.
func TestOutOfRangeRowsRejected(t *testing.T) {
	ctx := context.Background()
	// 4 chips x 2 banks x 32 rows; the empty plane makes ReadRowInto
	// count attempts, so a late rejection would show.
	mod := failyModule(t, scramble.VendorA, 2)
	host, err := NewHostWithConfig(mod, HostConfig{WaitMs: 64, Faults: &scriptPlane{}})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]uint64, host.Geometry().Words())
	ok := Row{Chip: 1, Bank: 1, Row: 3}
	ops := map[string]func(r Row) error{
		"Pass": func(r Row) error {
			_, err := host.Pass(ctx, []Row{ok, r}, [][]uint64{buf, buf}, 64)
			return err
		},
		"Verify": func(r Row) error {
			_, err := host.Verify(ctx, []Row{ok, r}, [][]uint64{buf, buf}, 64)
			return err
		},
		"ReadRowInto": func(r Row) error { return host.ReadRowInto(ctx, r, buf) },
		"Probe": func(r Row) error {
			cells := []BitAddr{{Chip: int16(ok.Chip), Bank: int16(ok.Bank), Row: int32(ok.Row)}, {Chip: int16(r.Chip), Bank: int16(r.Bank), Row: int32(r.Row)}}
			_, err := host.Probe(ctx, cells, [][]uint64{buf, buf}, 64)
			return err
		},
	}
	bad := []Row{
		{Chip: 0, Bank: 0, Row: 32}, {Chip: 0, Bank: 0, Row: -1},
		{Chip: 0, Bank: 2, Row: 0}, {Chip: 0, Bank: -1, Row: 0},
		{Chip: 4, Bank: 0, Row: 0}, {Chip: -1, Bank: 0, Row: 0},
	}
	for name, op := range ops {
		for _, r := range bad {
			passes, attempts := host.Passes(), host.Attempts()
			now0, pass0 := mod.Chip(0).Clock()
			err := op(r)
			if err == nil {
				t.Fatalf("%s accepted out-of-range row %+v", name, r)
			}
			if want := fmt.Sprintf("chip %d, bank %d, row %d", r.Chip, r.Bank, r.Row); !strings.Contains(err.Error(), want) {
				t.Errorf("%s(%+v) error %q does not name the row (%q)", name, r, err, want)
			}
			if host.Passes() != passes || host.Attempts() != attempts {
				t.Errorf("%s(%+v) moved passes %d->%d, attempts %d->%d", name, r, passes, host.Passes(), attempts, host.Attempts())
			}
			if now1, pass1 := mod.Chip(0).Clock(); now1 != now0 || pass1 != pass0 {
				t.Errorf("%s(%+v) advanced the chip clock %v/%d -> %v/%d", name, r, now0, pass0, now1, pass1)
			}
		}
	}
	// A probed column outside the row is rejected the same way.
	for _, col := range []int32{-1, int32(host.Geometry().Cols)} {
		passes, attempts := host.Passes(), host.Attempts()
		_, err := host.Probe(ctx, []BitAddr{{Chip: 1, Bank: 1, Row: 3, Col: col}}, [][]uint64{buf}, 64)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("column %d", col)) {
			t.Errorf("Probe at column %d: error %v, want one naming the column", col, err)
		}
		if host.Passes() != passes || host.Attempts() != attempts {
			t.Errorf("Probe at column %d moved passes %d->%d, attempts %d->%d", col, passes, host.Passes(), attempts, host.Attempts())
		}
	}
}

func TestNewHostValidation(t *testing.T) {
	if _, err := NewHost(nil, 0); err == nil {
		t.Error("nil module accepted")
	}
	if _, err := NewHost(cleanModule(t), -5); err == nil {
		t.Error("negative wait accepted")
	}
}

func TestHostDefaults(t *testing.T) {
	host, err := NewHost(cleanModule(t), 0)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	if host.WaitMs() != DefaultWaitMs {
		t.Errorf("WaitMs() = %v, want %v", host.WaitMs(), DefaultWaitMs)
	}
	if host.Chips() != 2 {
		t.Errorf("Chips() = %d, want 2", host.Chips())
	}
}

// TestAppendixTimingNumbers pins the Appendix arithmetic: a 2 GB
// module (8 chips, 8 banks x 32K rows x 8K cols) takes 667.5 ns per
// row, 174.98 ms per sweep and 413.96 ms per 64 ms pass.
func TestAppendixTimingNumbers(t *testing.T) {
	tm := DDR3_1600()

	if got := tm.RowAccessTime(8192); got < 667*time.Nanosecond || got > 668*time.Nanosecond {
		t.Errorf("RowAccessTime(8KB) = %v, want 667.5ns", got)
	}
	if got := tm.TwoBlockAccessTime(); got < 37*time.Nanosecond || got > 38*time.Nanosecond {
		t.Errorf("TwoBlockAccessTime() = %v, want 37.5ns", got)
	}

	paperGeom := dram.Geometry{Banks: 8, Rows: 32768, Cols: 8192}
	pass := tm.ModulePassTime(paperGeom, 8, 64)
	if pass < 413*time.Millisecond || pass > 415*time.Millisecond {
		t.Errorf("ModulePassTime = %v, want about 413.96ms", pass)
	}
	// Exact value: the fractional 667.5 ns per row must survive the
	// multiplication by 262144 rows — 2*262144*667.5ns + 64ms.
	// Truncating per-row first (the old bug) loses 262µs per pass.
	if want := 413962240 * time.Nanosecond; pass != want {
		t.Errorf("ModulePassTime = %v, want exactly %v (no per-row truncation)", pass, want)
	}
	if got := tm.RowAccessNs(8192); got != 667.5 {
		t.Errorf("RowAccessNs(8KB) = %v, want 667.5", got)
	}

	// 92 and 132 tests must land on the paper's 38-55 s range.
	if lo := 92 * pass; lo < 36*time.Second || lo > 40*time.Second {
		t.Errorf("92 passes = %v, want about 38s", lo)
	}
	if hi := 132 * pass; hi < 53*time.Second || hi > 57*time.Second {
		t.Errorf("132 passes = %v, want about 55s", hi)
	}
}

func TestTimeEstimateCountsPasses(t *testing.T) {
	host, err := NewHost(cleanModule(t), 64)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	data := make([]uint64, host.Geometry().Words())
	for i := 0; i < 3; i++ {
		if _, err := host.Pass(context.Background(), []Row{{Chip: 0, Bank: 0, Row: 0}}, [][]uint64{data}, host.WaitMs()); err != nil {
			t.Fatalf("Pass: %v", err)
		}
	}
	per := DDR3_1600().ModulePassTime(host.Geometry(), host.Chips(), 64)
	if got, want := host.TimeEstimate(DDR3_1600()), 3*per; got != want {
		t.Errorf("TimeEstimate = %v, want %v", got, want)
	}
}

// TestCompareAddrs pins the canonical order's field precedence: chip
// outranks bank, bank outranks row, row outranks column, and only equal
// addresses compare equal. Each case is checked in both directions.
func TestCompareAddrs(t *testing.T) {
	a := BitAddr{Chip: 1, Bank: 1, Row: 1, Col: 1}
	cases := []struct {
		name string
		a, b BitAddr
		want int
	}{
		{"equal", a, a, 0},
		{"zero", BitAddr{}, BitAddr{}, 0},
		{"col", a, BitAddr{Chip: 1, Bank: 1, Row: 1, Col: 2}, -1},
		{"row before col", a, BitAddr{Chip: 1, Bank: 1, Row: 2, Col: 0}, -1},
		{"bank before row", a, BitAddr{Chip: 1, Bank: 2, Row: 0, Col: 0}, -1},
		{"chip before bank", a, BitAddr{Chip: 2, Bank: 0, Row: 0, Col: 0}, -1},
		{"chip before all", BitAddr{Chip: 0, Bank: 9, Row: 9, Col: 9}, a, -1},
		{"negative row", BitAddr{Chip: 1, Bank: 1, Row: -1, Col: 5}, a, -1},
	}
	for _, tc := range cases {
		if got := CompareAddrs(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: CompareAddrs(%+v, %+v) = %d, want %d", tc.name, tc.a, tc.b, got, tc.want)
		}
		if got := CompareAddrs(tc.b, tc.a); got != -tc.want {
			t.Errorf("%s: CompareAddrs(%+v, %+v) = %d, want %d", tc.name, tc.b, tc.a, got, -tc.want)
		}
	}
}
