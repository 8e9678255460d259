package core

import (
	"context"
	"maps"
	"slices"
	"testing"

	"parbor/internal/coupling"
	"parbor/internal/dram"
	"parbor/internal/faults"
	"parbor/internal/memctl"
	"parbor/internal/scramble"
)

// tailModule builds a vendor-A chip where half the victims need a
// two-cell-per-side interference tail.
func tailModule(t *testing.T) (*dram.Module, *Tester) {
	t.Helper()
	mod, err := dram.NewModule(dram.ModuleConfig{
		Vendor:   scramble.VendorA,
		Chips:    1,
		Geometry: dram.Geometry{Banks: 1, Rows: 384, Cols: 8192},
		Coupling: coupling.Config{
			VulnerableRate:  2e-3,
			StrongLeftFrac:  0.3,
			StrongRightFrac: 0.3,
			RetentionMinMs:  100,
			RetentionMaxMs:  100,
			SurroundWeights: []float64{0.5, 0, 0.5}, // half level 0, half level 2
		},
		Faults: faults.Config{},
		Seed:   51,
	})
	if err != nil {
		t.Fatalf("NewModule: %v", err)
	}
	host, err := memctl.NewHost(mod, 0)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	tester, err := New(host, Config{Seed: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return mod, tester
}

// tailOffsets returns every legal second-order offset of the mapping:
// the signed distances to cells 2..steps physical hops away.
func tailOffsets(m *scramble.Mapping, maxSteps int) map[int]bool {
	out := make(map[int]bool)
	for o := 0; o < m.ChunkBits(); o++ {
		for _, dir := range []bool{true, false} {
			cur := o
			for step := 1; step <= maxSteps; step++ {
				l, r, hasL, hasR := m.Neighbors(cur)
				if dir {
					if !hasL {
						break
					}
					cur = l
				} else {
					if !hasR {
						break
					}
					cur = r
				}
				if step >= 2 {
					out[cur-o] = true
				}
			}
		}
	}
	return out
}

func TestDetectExtendedNeighbors(t *testing.T) {
	mod, tester := tailModule(t)
	res, err := tester.DetectNeighborsCtx(context.Background())
	if err != nil {
		t.Fatalf("DetectNeighborsCtx: %v", err)
	}
	victims, _, _, err := tester.DiscoverVictims(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	classified, _, err := tester.ClassifyVictims(context.Background(), victims, res.Distances)
	if err != nil {
		t.Fatalf("ClassifyVictims: %v", err)
	}
	tail := TailGated(classified)
	if len(tail) < 20 {
		t.Fatalf("only %d tail-gated victims; module should have many", len(tail))
	}
	ext, err := tester.DetectExtendedNeighbors(context.Background(), tail, res.Distances)
	if err != nil {
		t.Fatalf("DetectExtendedNeighbors: %v", err)
	}
	if len(ext.Distances) == 0 {
		t.Fatal("no second-order distances found")
	}
	// Soundness: every found distance must be a genuine 2..3-hop
	// offset of the mapping.
	valid := tailOffsets(mod.Chip(0).Mapping(), 3)
	for _, d := range ext.Distances {
		if !valid[d] {
			t.Errorf("distance %+d is not a legal second-order offset", d)
		}
	}
	// The immediate distances must have been filtered out.
	for _, d := range ext.Distances {
		for _, imm := range res.Distances {
			if d == imm {
				t.Errorf("immediate distance %+d leaked into the tail set", d)
			}
		}
	}
	if ext.Tests == 0 || len(ext.Levels) == 0 {
		t.Error("no work recorded")
	}
	t.Logf("second-order distances: %v (%d tests, %d victims)", ext.Distances, ext.Tests, ext.Victims)
}

func TestDetectExtendedNeighborsValidation(t *testing.T) {
	_, tester := tailModule(t)
	if _, err := tester.DetectExtendedNeighbors(context.Background(), nil, []int{8}); err == nil {
		t.Error("empty victims accepted")
	}
	if _, err := tester.DetectExtendedNeighbors(context.Background(), []Victim{{}}, nil); err == nil {
		t.Error("empty distances accepted")
	}
}

func TestFillNeutralizedPattern(t *testing.T) {
	buf := make([]uint64, 4)
	// failData 1: background zeros (opposite), region [64,128) ones,
	// victim at 10 also one.
	fillNeutralizedPattern(buf, 1, 64, 64, 10)
	for i := 0; i < 256; i++ {
		want := uint64(0)
		if (i >= 64 && i < 128) || i == 10 {
			want = 1
		}
		if got := bitAt(buf, i); got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
	// failData 0: background ones, region zeros.
	fillNeutralizedPattern(buf, 0, 0, 8, 100)
	for i := 0; i < 256; i++ {
		want := uint64(1)
		if i < 8 || i == 100 {
			want = 0
		}
		if got := bitAt(buf, i); got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
}

// TestDuplicateVictimsJudgedPerEntry: a victim listed twice is probed
// twice, and each entry must be judged on its own. With every victim
// listed twice, ClassifyVictims gives both copies the class the victim
// gets when listed once, and DetectExtendedNeighbors reports the same
// tests and distances with every level's frequencies doubled. Each
// run gets a fresh twin module.
func TestDuplicateVictimsJudgedPerEntry(t *testing.T) {
	ctx := context.Background()
	_, tester := tailModule(t)
	res, err := tester.DetectNeighborsCtx(ctx)
	if err != nil {
		t.Fatalf("DetectNeighborsCtx: %v", err)
	}
	victims, _, _, err := tester.DiscoverVictims(ctx)
	if err != nil {
		t.Fatal(err)
	}
	twice := func(vs []Victim) []Victim {
		out := make([]Victim, 0, 2*len(vs))
		for _, v := range vs {
			out = append(out, v, v)
		}
		return out
	}

	_, once := tailModule(t)
	_, doubled := tailModule(t)
	base, _, err := once.ClassifyVictims(ctx, victims, res.Distances)
	if err != nil {
		t.Fatalf("ClassifyVictims: %v", err)
	}
	dup, _, err := doubled.ClassifyVictims(ctx, twice(victims), res.Distances)
	if err != nil {
		t.Fatalf("ClassifyVictims (each victim twice): %v", err)
	}
	coupled := 0
	for i, c := range base {
		if c.Kind == KindSingle || c.Kind == KindPair {
			coupled++
		}
		for k, d := range dup[2*i : 2*i+2] {
			if d.Kind != c.Kind || !slices.Equal(d.Distances, c.Distances) {
				t.Errorf("victim %d copy %d: %v %v, listed once %v %v", i, k, d.Kind, d.Distances, c.Kind, c.Distances)
			}
		}
	}
	if coupled == 0 {
		t.Fatal("no victim classified as coupled; the duplicate check is vacuous")
	}

	tail := TailGated(base)
	_, once = tailModule(t)
	_, doubled = tailModule(t)
	ext, err := once.DetectExtendedNeighbors(ctx, tail, res.Distances)
	if err != nil {
		t.Fatalf("DetectExtendedNeighbors: %v", err)
	}
	extDup, err := doubled.DetectExtendedNeighbors(ctx, twice(tail), res.Distances)
	if err != nil {
		t.Fatalf("DetectExtendedNeighbors (each victim twice): %v", err)
	}
	if extDup.Tests != ext.Tests || !slices.Equal(extDup.Distances, ext.Distances) || len(extDup.Levels) != len(ext.Levels) {
		t.Fatalf("each victim twice: %d tests, distances %v, %d levels; listed once: %d, %v, %d",
			extDup.Tests, extDup.Distances, len(extDup.Levels), ext.Tests, ext.Distances, len(ext.Levels))
	}
	for i, l := range ext.Levels {
		d := extDup.Levels[i]
		want := make(map[int]int, len(l.Frequencies))
		for dist, n := range l.Frequencies {
			want[dist] = 2 * n
		}
		if !maps.Equal(d.Frequencies, want) || !slices.Equal(d.Distances, l.Distances) {
			t.Errorf("level %d: each victim twice gives frequencies %v, distances %v; want %v, %v", i+1, d.Frequencies, d.Distances, want, l.Distances)
		}
	}
}
