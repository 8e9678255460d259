package memctl

import (
	"context"
	"reflect"
	"testing"

	"parbor/internal/patterns"
	"parbor/internal/scramble"
)

// TestFullPassSourceShapesAgree: a RowSource may alias one immutable
// row (a uniform pattern's one filled row) or fill the host's per-chip buffer. Both shapes
// of the same pattern must drive twin modules through identical
// passes — the same failures, the same pass count, and the same
// contents when the rows are read back afterwards — serially and
// sharded.
func TestFullPassSourceShapesAgree(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		aliasHost, err := NewHostWithConfig(failyModule(t, scramble.VendorB, 5), HostConfig{WaitMs: 512, Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		fillHost, err := NewHostWithConfig(failyModule(t, scramble.VendorB, 5), HostConfig{WaitMs: 512, Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		g := aliasHost.Geometry()
		row := make([]uint64, g.Words())
		total := 0
		for _, base := range patterns.DiscoveryPatterns() {
			for _, p := range []patterns.Pattern{base, base.Inverse()} {
				fill := p.Fill
				fill(0, 0, 0, row)
				aliased := func(Row, []uint64) []uint64 { return row }
				filled := func(r Row, buf []uint64) []uint64 {
					fill(r.Chip, r.Bank, r.Row, buf)
					return buf
				}
				want, err := aliasHost.FullPass(ctx, aliased, aliasHost.WaitMs())
				if err != nil {
					t.Fatalf("workers=%d %s: aliased pass: %v", workers, p.Name, err)
				}
				got, err := fillHost.FullPass(ctx, filled, fillHost.WaitMs())
				if err != nil {
					t.Fatalf("workers=%d %s: filled pass: %v", workers, p.Name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d %s: source shapes diverged (%d vs %d failures)", workers, p.Name, len(got), len(want))
				}
				if aliasHost.Passes() != fillHost.Passes() {
					t.Fatalf("workers=%d %s: pass counts %d vs %d", workers, p.Name, aliasHost.Passes(), fillHost.Passes())
				}
				total += len(want)
			}
		}
		if total == 0 {
			t.Fatalf("workers=%d: no failures at all; test is vacuous", workers)
		}
		a, b := make([]uint64, g.Words()), make([]uint64, g.Words())
		for chip := 0; chip < aliasHost.Chips(); chip++ {
			for bank := 0; bank < g.Banks; bank++ {
				for r := 0; r < g.Rows; r++ {
					row := Row{Chip: chip, Bank: bank, Row: r}
					if err := aliasHost.ReadRowInto(ctx, row, a); err != nil {
						t.Fatal(err)
					}
					if err := fillHost.ReadRowInto(ctx, row, b); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("workers=%d: read-back of %+v differs between source shapes", workers, row)
					}
				}
			}
		}
	}
}
