package scramble

import "testing"

func BenchmarkNeighbors(b *testing.B) {
	m := mustNew(VendorA)
	for i := 0; i < b.N; i++ {
		_, _, _, _ = m.Neighbors(i & 8191)
	}
}

func BenchmarkNewVendorC(b *testing.B) {
	// Vendor C runs the matching/augmentation construction.
	for i := 0; i < b.N; i++ {
		_ = mustNew(VendorC)
	}
}
