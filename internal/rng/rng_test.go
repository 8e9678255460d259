package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split("alpha")
	c2 := parent.Split("beta")
	c1again := parent.Split("alpha")
	if c1.Uint64() != c1again.Uint64() {
		t.Error("same label produced different streams")
	}
	if c1.Uint64() == c2.Uint64() {
		t.Error("different labels produced the same stream")
	}
}

func TestSplitDoesNotPerturbParent(t *testing.T) {
	a, b := New(9), New(9)
	a.Split("x")
	a.SplitN("y", 3)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split perturbed the parent stream")
		}
	}
}

func TestSplitNDistinct(t *testing.T) {
	p := New(1)
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 1000; i++ {
		v := p.SplitN("row", i).Uint64()
		if seen[v] {
			t.Fatalf("SplitN collision at %d", i)
		}
		seen[v] = true
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	s := New(4)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := s.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	s := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.1*want {
			t.Errorf("bucket %d: %d draws, want about %.0f", i, c, want)
		}
	}
}

func TestBool(t *testing.T) {
	s := New(6)
	if s.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !s.Bool(1) {
		t.Error("Bool(1) returned false")
	}
	hits := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if s.Bool(0.25) {
			hits++
		}
	}
	if math.Abs(float64(hits)/draws-0.25) > 0.01 {
		t.Errorf("Bool(0.25) rate = %v", float64(hits)/draws)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	s := New(10)
	const draws = 200000
	var sum float64
	for i := 0; i < draws; i++ {
		sum += s.ExpFloat64()
	}
	if mean := sum / draws; math.Abs(mean-1) > 0.02 {
		t.Errorf("mean = %v, want about 1", mean)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var s Source
	_ = s.Uint64() // must not panic
}

// TestValueVariantsMatchPointerVariants pins the contract the DRAM
// hot paths rely on: Child/At produce bit-identical
// streams to New/Split/SplitN, so switching a call site to the
// value-based (allocation-free) API never changes a single draw.
func TestValueVariantsMatchPointerVariants(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0xdeadbeef} {
		for _, label := range []string{"", "vrt-toggle", "soft", "row"} {
			pc := New(seed).Split(label)
			vc := *New(seed)
			vcc := vc.Child(label)
			if pc.state != vcc.state {
				t.Fatalf("Child(%q) state %#x, Split %#x", label, vcc.state, pc.state)
			}
			for _, n := range []uint64{0, 1, 7, 1 << 40} {
				pn := New(seed).SplitN(label, n)
				vn := vcc.At(n)
				if pn.state != vn.state {
					t.Fatalf("Child(%q).At(%d) state %#x, SplitN %#x", label, n, vn.state, pn.state)
				}
				if pn.Uint64() != vn.Uint64() {
					t.Fatalf("draw mismatch for (%q, %d)", label, n)
				}
			}
		}
	}
}
