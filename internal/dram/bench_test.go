package dram

import (
	"testing"

	"parbor/internal/coupling"
	"parbor/internal/faults"
	"parbor/internal/scramble"
)

func benchChip(b *testing.B) *Chip {
	b.Helper()
	cc := coupling.DefaultConfig()
	cc.VulnerableRate = 1e-3
	chip, err := newChip(ChipConfig{
		Geometry: Geometry{Banks: 1, Rows: 512, Cols: 8192},
		Vendor:   scramble.VendorA,
		Coupling: cc,
		Faults:   faults.DefaultConfig(),
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return chip
}

func BenchmarkWriteRow(b *testing.B) {
	chip := benchChip(b)
	buf := make([]uint64, chip.geom.Words())
	b.SetBytes(int64(len(buf) * 8))
	for i := 0; i < b.N; i++ {
		chip.WriteRow(0, i&511, buf)
	}
}

func BenchmarkReadRowWithFailureEvaluation(b *testing.B) {
	chip := benchChip(b)
	buf := make([]uint64, chip.geom.Words())
	for r := 0; r < 512; r++ {
		chip.WriteRow(0, r, buf)
	}
	chip.wait(4000)
	dst := make([]uint64, len(buf))
	b.SetBytes(int64(len(buf) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chip.ReadRow(0, i&511, dst)
	}
}
