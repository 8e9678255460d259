package memctl

import (
	"context"
	"testing"

	"parbor/internal/coupling"
	"parbor/internal/dram"
	"parbor/internal/faults"
	"parbor/internal/scramble"
)

func TestVerifyDoesNotRechargeCells(t *testing.T) {
	// Weak cells fail after 300 ms unrefreshed. Pass() would rewrite
	// (recharge) the row and mask the decay; Verify() must not.
	mod, err := dram.NewModule(dram.ModuleConfig{
		Vendor:   scramble.VendorA,
		Chips:    1,
		Geometry: dram.Geometry{Banks: 1, Rows: 32, Cols: 1024},
		Coupling: coupling.Config{VulnerableRate: 0, RetentionMinMs: 1, RetentionMaxMs: 1},
		Faults:   faults.Config{WeakCellRate: 0.02},
		Seed:     8,
	})
	if err != nil {
		t.Fatalf("NewModule: %v", err)
	}
	host, err := NewHost(mod, 0)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	ones := make([]uint64, host.Geometry().Words())
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	rows := []Row{{Chip: 0, Bank: 0, Row: 0}, {Chip: 0, Bank: 0, Row: 4}}
	data := [][]uint64{ones, ones}

	// Write with a short wait: no decay yet.
	fails, err := host.Pass(context.Background(), rows, data, 10)
	if err != nil {
		t.Fatalf("Pass: %v", err)
	}
	if len(fails) != 0 {
		t.Fatalf("failures after 10 ms: %d", len(fails))
	}
	// Verify 500 ms later without rewriting: decay accumulates from
	// the original write, so weak cells must now fail.
	fails, err = host.Verify(context.Background(), rows, data, 500)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if len(fails) == 0 {
		t.Error("Verify after 510 ms total found no weak-cell failures")
	}
}

func TestVerifyValidation(t *testing.T) {
	host, err := NewHost(cleanModule(t), 0)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	if _, err := host.Verify(context.Background(), []Row{{}}, nil, 0); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := host.Verify(context.Background(), []Row{{}}, [][]uint64{make([]uint64, 2)}, 0); err == nil {
		t.Error("short buffer accepted")
	}
	if _, err := host.Verify(context.Background(), nil, nil, -1); err == nil {
		t.Error("negative wait accepted")
	}
}

func TestPassWithWaitValidation(t *testing.T) {
	host, err := NewHost(cleanModule(t), 0)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	if _, err := host.Pass(context.Background(), nil, nil, -1); err == nil {
		t.Error("negative wait accepted")
	}
}
