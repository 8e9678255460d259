package scramble

import "testing"

func TestInferRealizesVendorDistanceSets(t *testing.T) {
	for _, v := range Vendors() {
		t.Run(v.String(), func(t *testing.T) {
			truth := mustNew(v)
			inferred, err := Infer(truth.Distances(), truth.ChunkBits())
			if err != nil {
				t.Fatalf("Infer: %v", err)
			}
			// Soundness: the inferred layout may only use the given
			// distances.
			want := make(map[int]bool)
			for _, d := range truth.Distances() {
				want[d] = true
			}
			for _, d := range inferred.Distances() {
				if !want[d] {
					t.Errorf("inferred layout uses distance %+d outside the input set", d)
				}
			}
			// Completeness: every input distance must appear.
			got := make(map[int]bool)
			for _, d := range inferred.Distances() {
				got[d] = true
			}
			for d := range want {
				if !got[d] {
					t.Errorf("inferred layout never realizes distance %+d", d)
				}
			}
		})
	}
}

func TestInferFrequencyBalance(t *testing.T) {
	m, err := Infer([]int{-48, -16, -8, 8, 16, 48}, 128)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	counts := distanceCounts(m)
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	for d, c := range counts {
		if float64(c) < 0.2*float64(max) {
			t.Errorf("distance %+d occurs %d times vs max %d; want balanced", d, c, max)
		}
	}
}

func TestInferValidation(t *testing.T) {
	if _, err := Infer(nil, 128); err == nil {
		t.Error("empty distances accepted")
	}
	if _, err := Infer([]int{1}, 0); err == nil {
		t.Error("zero chunk accepted")
	}
	if _, err := Infer([]int{128}, 128); err == nil {
		t.Error("distance >= chunk accepted")
	}
	if _, err := Infer([]int{0}, 128); err == nil {
		t.Error("zero distance accepted")
	}
}

// TestInferredMappingDetectable closes the loop: a chip built on an
// inferred layout must be detectable, yielding a subset of the input
// distances (detection only reports what the victim sample realizes).
func TestInferredMappingDetectable(t *testing.T) {
	inferred, err := Infer([]int{-64, -1, 1, 64}, 128)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	// Every cell of the inferred mapping must have consistent
	// neighbor tables (exercised through the property accessors).
	for o := 0; o < inferred.ChunkBits(); o++ {
		l, r, hasL, hasR := inferred.Neighbors(o)
		if hasL && (l < 0 || l >= inferred.ChunkBits()) {
			t.Fatalf("offset %d: left neighbor %d out of range", o, l)
		}
		if hasR && (r < 0 || r >= inferred.ChunkBits()) {
			t.Fatalf("offset %d: right neighbor %d out of range", o, r)
		}
	}
}
