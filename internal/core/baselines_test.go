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

// smallRowTester builds a toy-mapping chip with 1024-bit rows so the
// naive searches stay affordable, and returns a victim with known
// ground truth.
func smallRowTester(t *testing.T) (*Tester, *dram.Chip, Victim, coupling.Victim) {
	t.Helper()
	mod, err := dram.NewModule(dram.ModuleConfig{
		Vendor:   scramble.VendorToy,
		Chips:    1,
		Geometry: dram.Geometry{Banks: 1, Rows: 64, Cols: 1024},
		Coupling: coupling.Config{
			VulnerableRate:  0.01,
			StrongLeftFrac:  0.5,
			StrongRightFrac: 0.5,
			RetentionMinMs:  100,
			RetentionMaxMs:  100,
		},
		Faults: faults.Config{},
		Seed:   91,
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
	chip := mod.Chip(0)
	// Find a strong victim with both neighbors, in a true-cell row.
	for row := 0; row < 64; row += 4 {
		for _, gt := range chip.TrueVictims(0, row) {
			if gt.Class == coupling.Weak {
				continue
			}
			_, _, hasL, hasR := chip.Mapping().Neighbors(int(gt.Col))
			if !hasL || !hasR {
				continue
			}
			v := Victim{
				Row:      memctl.Row{Chip: 0, Bank: 0, Row: row},
				Col:      gt.Col,
				FailData: 1, // true-cell row: charged at data 1
			}
			return tester, chip, v, gt
		}
	}
	t.Fatal("no suitable victim found")
	return nil, nil, Victim{}, coupling.Victim{}
}

func TestLinearNeighborSearchFindsStrongSide(t *testing.T) {
	tester, chip, v, gt := smallRowTester(t)
	found, passes, err := tester.LinearNeighborSearch(context.Background(), v)
	if err != nil {
		t.Fatalf("LinearNeighborSearch: %v", err)
	}
	if passes != 1023 {
		t.Errorf("passes = %d, want n-1 = 1023", passes)
	}
	left, right, _, _ := chip.Mapping().Neighbors(int(v.Col))
	want := left
	if gt.Class == coupling.StrongRight {
		want = right
	}
	wantDist := want - int(v.Col)
	if len(found) != 1 || found[0] != wantDist {
		t.Errorf("found %v, want [%d] (class %v)", found, wantDist, gt.Class)
	}
}

func TestExhaustivePairSearchFindsPairs(t *testing.T) {
	if testing.Short() {
		t.Skip("O(n^2) pass count")
	}
	tester, chip, v, gt := smallRowTester(t)
	found, passes, err := tester.ExhaustivePairSearch(context.Background(), v)
	if err != nil {
		t.Fatalf("ExhaustivePairSearch: %v", err)
	}
	// C(1023, 2) pairs of non-victim bits.
	if want := 1023 * 1022 / 2; passes != want {
		t.Errorf("passes = %d, want %d", passes, want)
	}
	left, right, _, _ := chip.Mapping().Neighbors(int(v.Col))
	strongSide := left
	if gt.Class == coupling.StrongRight {
		strongSide = right
	}
	wantDist := strongSide - int(v.Col)
	// A strong victim fails for every pair containing its coupled
	// neighbor: n-2 pairs.
	if want := 1022; len(found) != want {
		t.Fatalf("found %d failing pairs, want %d", len(found), want)
	}
	for _, pair := range found {
		if pair[0] != wantDist && pair[1] != wantDist {
			t.Fatalf("pair %v does not contain the coupled neighbor distance %d", pair, wantDist)
		}
	}
}

func TestExhaustivePairSearchRejectsBigRows(t *testing.T) {
	host := testHost(t, scramble.VendorA, 8, 1) // 8192-bit rows
	tester := newTester(t, host)
	if _, _, err := tester.ExhaustivePairSearch(context.Background(), Victim{}); err == nil {
		t.Error("8192-bit exhaustive search accepted")
	}
}

// TestSimplePatternTestMissesCoupling: the all-0s/1s test that prior
// works rely on finds no coupling victims at all (Section 3,
// Challenge 2) — every cell's neighbors always hold the same value.
func TestSimplePatternTestMissesCoupling(t *testing.T) {
	tester, _, _, _ := smallRowTester(t)
	fails, err := tester.SimplePatternTest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) != 0 {
		t.Errorf("solid patterns found %d failures on a coupling-only chip, want 0", len(fails))
	}
	// PARBOR's pipeline on the same module finds plenty.
	rep, err := tester.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.AllFailures) == 0 {
		t.Error("PARBOR found nothing on a chip with 1% victims")
	}
}

// TestLinearVsParborBudget quantifies the paper's 90X claim on the
// simulated substrate: the linear per-bit search needs n passes per
// row to find one victim's neighbors, while PARBOR's recursion covers
// the whole module in ~90.
func TestLinearVsParborBudget(t *testing.T) {
	tester, _, v, _ := smallRowTester(t)
	_, linearPasses, err := tester.LinearNeighborSearch(context.Background(), v)
	if err != nil {
		t.Fatalf("LinearNeighborSearch: %v", err)
	}
	res, err := tester.DetectNeighborsCtx(context.Background())
	if err != nil {
		t.Fatalf("DetectNeighborsCtx: %v", err)
	}
	if res.RecursionTests >= linearPasses {
		t.Errorf("recursion used %d tests vs linear %d; expected a large reduction",
			res.RecursionTests, linearPasses)
	}
}
