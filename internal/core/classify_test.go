package core

import (
	"context"
	"testing"

	"parbor/internal/coupling"
	"parbor/internal/dram"
	"parbor/internal/faults"
	"parbor/internal/memctl"
	"parbor/internal/scramble"
)

// classifyModule builds a quiet vendor-A chip (no random faults, no
// surround tails) so classes are deterministic.
func classifyModule(t *testing.T, fc faults.Config) (*dram.Module, *Tester) {
	t.Helper()
	mod, err := dram.NewModule(dram.ModuleConfig{
		Vendor:   scramble.VendorA,
		Chips:    1,
		Geometry: dram.Geometry{Banks: 1, Rows: 256, Cols: 8192},
		Coupling: coupling.Config{
			VulnerableRate:  2e-3,
			StrongLeftFrac:  0.3,
			StrongRightFrac: 0.3,
			RetentionMinMs:  100,
			RetentionMaxMs:  100,
		},
		Faults: fc,
		Seed:   33,
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

func TestClassifyVictimsAgainstGroundTruth(t *testing.T) {
	mod, tester := classifyModule(t, faults.Config{})
	res, err := tester.DetectNeighborsCtx(context.Background())
	if err != nil {
		t.Fatalf("DetectNeighborsCtx: %v", err)
	}
	victims, _, _, err := tester.DiscoverVictims(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	classified, tests, err := tester.ClassifyVictims(context.Background(), victims, res.Distances)
	if err != nil {
		t.Fatalf("ClassifyVictims: %v", err)
	}
	// 1 quiet + 6 singles + 15 pairs.
	if tests != 22 {
		t.Errorf("tests = %d, want 22", tests)
	}

	// Build ground truth per (row, col).
	chip := mod.Chip(0)
	truth := make(map[memctl.BitAddr]coupling.Victim)
	for row := 0; row < 256; row++ {
		for _, v := range chip.TrueVictims(0, row) {
			truth[memctl.BitAddr{Row: int32(row), Col: v.Col}] = v
		}
	}

	checked := 0
	for _, c := range classified {
		gt, ok := truth[memctl.BitAddr{Row: int32(c.Victim.Row.Row), Col: c.Victim.Col}]
		if !ok {
			continue // a noise cell sampled as victim; nothing to check
		}
		left, right, hasL, hasR := chip.Mapping().Neighbors(int(c.Victim.Col))
		switch gt.Class {
		case coupling.StrongLeft, coupling.StrongRight:
			wantNeighbor := left
			if gt.Class == coupling.StrongRight {
				wantNeighbor = right
			}
			if (gt.Class == coupling.StrongLeft && !hasL) || (gt.Class == coupling.StrongRight && !hasR) {
				continue // coupled side missing: cannot fail, stays unknown
			}
			if gt.Surround != 0 {
				continue // tail-gated: single probes cannot fire it
			}
			if c.Kind != KindSingle {
				t.Errorf("victim %+v: classified %v, ground truth strong", c.Victim, c.Kind)
				continue
			}
			wantDist := wantNeighbor - int(c.Victim.Col)
			if len(c.Distances) != 1 || c.Distances[0] != wantDist {
				t.Errorf("victim %+v: distances %v, want [%d]", c.Victim, c.Distances, wantDist)
			}
			checked++
		case coupling.Weak:
			if !hasL || !hasR || gt.Surround != 0 {
				continue
			}
			if c.Kind != KindPair {
				t.Errorf("victim %+v: classified %v, ground truth weak", c.Victim, c.Kind)
				continue
			}
			wantA, wantB := left-int(c.Victim.Col), right-int(c.Victim.Col)
			if wantA > wantB {
				wantA, wantB = wantB, wantA
			}
			if len(c.Distances) != 2 || c.Distances[0] != wantA || c.Distances[1] != wantB {
				t.Errorf("victim %+v: distances %v, want [%d %d]", c.Victim, c.Distances, wantA, wantB)
			}
			checked++
		}
	}
	if checked < 20 {
		t.Errorf("only %d victims checked against ground truth; sample too small", checked)
	}
}

func TestClassifyFlagsContentIndependentCells(t *testing.T) {
	// Weak-kind fault cells fail deterministically at long waits
	// regardless of content: the quiet pass must catch every sampled
	// one.
	_, tester := classifyModule(t, faults.Config{WeakCellRate: 2e-4})
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
	counts := ClassCounts(classified)
	if counts[KindContentIndependent] == 0 {
		t.Error("no content-independent victims flagged despite weak cells in the module")
	}
	if counts[KindSingle] == 0 {
		t.Error("no strongly coupled victims classified")
	}
}

func TestClassifyVictimsValidation(t *testing.T) {
	_, tester := classifyModule(t, faults.Config{})
	if _, _, err := tester.ClassifyVictims(context.Background(), nil, []int{1}); err == nil {
		t.Error("empty victims accepted")
	}
	if _, _, err := tester.ClassifyVictims(context.Background(), []Victim{{}}, nil); err == nil {
		t.Error("empty distances accepted")
	}
}

func TestCouplingKindString(t *testing.T) {
	for _, tc := range []struct {
		kind CouplingKind
		want string
	}{
		{KindUnknown, "unknown"},
		{KindContentIndependent, "content-independent"},
		{KindSingle, "strongly-coupled"},
		{KindPair, "weakly-coupled"},
		{CouplingKind(9), "CouplingKind(9)"},
	} {
		if got := tc.kind.String(); got != tc.want {
			t.Errorf("%d.String() = %q, want %q", tc.kind, got, tc.want)
		}
	}
}
