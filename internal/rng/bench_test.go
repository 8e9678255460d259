package rng

import "testing"

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkSplitN(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.SplitN("row", uint64(i))
	}
}
