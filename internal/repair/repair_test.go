package repair

import (
	"context"
	"testing"

	"parbor/internal/core"
	"parbor/internal/memctl"
)

func addr(row, col int) memctl.BitAddr {
	return memctl.BitAddr{Row: int32(row), Col: int32(col)}
}

func TestECCAbsorbsSingleBitPerWord(t *testing.T) {
	failures := []memctl.BitAddr{
		addr(1, 10),  // word 0
		addr(1, 70),  // word 1
		addr(2, 500), // word 7
	}
	plan, err := MakePlan(failures, Budget{ECCBitsPerWord: 1}, Options{})
	if err != nil {
		t.Fatalf("MakePlan: %v", err)
	}
	if len(plan.ECCCovered) != 3 || len(plan.Uncovered) != 0 || len(plan.Remapped) != 0 {
		t.Errorf("plan = %+v, want all ECC-covered", plan)
	}
	if plan.CoverageFraction() != 1 {
		t.Errorf("coverage = %v, want 1", plan.CoverageFraction())
	}
}

func TestSecondBitInWordNeedsRemap(t *testing.T) {
	failures := []memctl.BitAddr{
		addr(1, 10), // word 0
		addr(1, 20), // word 0 again: exceeds SECDED
	}
	plan, err := MakePlan(failures, Budget{ECCBitsPerWord: 1, RemapEntries: 1}, Options{})
	if err != nil {
		t.Fatalf("MakePlan: %v", err)
	}
	if len(plan.ECCCovered) != 1 || len(plan.Remapped) != 1 || len(plan.Uncovered) != 0 {
		t.Errorf("plan = %+v, want 1 ECC + 1 remap", plan)
	}
	// Without the remap entry the second bit is uncovered.
	plan, err = MakePlan(failures, Budget{ECCBitsPerWord: 1}, Options{})
	if err != nil {
		t.Fatalf("MakePlan: %v", err)
	}
	if len(plan.Uncovered) != 1 {
		t.Errorf("plan = %+v, want 1 uncovered", plan)
	}
}

func TestSpareRowsTakeWorstRows(t *testing.T) {
	var failures []memctl.BitAddr
	// Row 5: six failures packed in one word (ECC hopeless).
	for i := 0; i < 6; i++ {
		failures = append(failures, addr(5, 10+i))
	}
	// Row 9: two failures in one word.
	failures = append(failures, addr(9, 100), addr(9, 101))
	// Row 1: one isolated failure.
	failures = append(failures, addr(1, 3000))

	plan, err := MakePlan(failures, Budget{SpareRows: 1, ECCBitsPerWord: 1, RemapEntries: 1}, Options{})
	if err != nil {
		t.Fatalf("MakePlan: %v", err)
	}
	if len(plan.SparedRows) != 1 || plan.SparedRows[0].Row != 5 {
		t.Fatalf("spared rows = %+v, want row 5", plan.SparedRows)
	}
	if plan.sparedFailureCount != 6 {
		t.Errorf("spared failures = %d, want 6", plan.sparedFailureCount)
	}
	// Row 9: one ECC + one remap; row 1: ECC.
	if len(plan.ECCCovered) != 2 || len(plan.Remapped) != 1 || len(plan.Uncovered) != 0 {
		t.Errorf("plan = %+v, want full coverage", plan)
	}
	if plan.CoverageFraction() != 1 {
		t.Errorf("coverage = %v, want 1", plan.CoverageFraction())
	}
}

func TestSpareRowsNotWastedOnECCAbsorbableRows(t *testing.T) {
	failures := []memctl.BitAddr{addr(1, 10), addr(2, 500)}
	plan, err := MakePlan(failures, Budget{SpareRows: 4, ECCBitsPerWord: 1}, Options{})
	if err != nil {
		t.Fatalf("MakePlan: %v", err)
	}
	if len(plan.SparedRows) != 0 {
		t.Errorf("spared %d rows despite ECC sufficing", len(plan.SparedRows))
	}
}

func TestRefreshManagedExclusion(t *testing.T) {
	classified := []core.ClassifiedVictim{
		{
			Victim: core.Victim{Row: memctl.Row{Row: 7}, Col: 42},
			Kind:   core.KindSingle,
		},
		{
			Victim: core.Victim{Row: memctl.Row{Row: 7}, Col: 43},
			Kind:   core.KindContentIndependent,
		},
	}
	managed := BuildRefreshManaged(classified)
	if len(managed) != 1 {
		t.Fatalf("managed set = %v, want 1 entry", managed)
	}
	failures := []memctl.BitAddr{addr(7, 42), addr(7, 43)}
	plan, err := MakePlan(failures, Budget{ECCBitsPerWord: 1}, Options{RefreshManaged: managed})
	if err != nil {
		t.Fatalf("MakePlan: %v", err)
	}
	if len(plan.RefreshManaged) != 1 || len(plan.ECCCovered) != 1 {
		t.Errorf("plan = %+v, want 1 refresh-managed + 1 ECC", plan)
	}
}

func TestNoECCNoBudgetEverythingUncovered(t *testing.T) {
	failures := []memctl.BitAddr{addr(1, 1), addr(2, 2)}
	plan, err := MakePlan(failures, Budget{}, Options{})
	if err != nil {
		t.Fatalf("MakePlan: %v", err)
	}
	if len(plan.Uncovered) != 2 {
		t.Errorf("plan = %+v, want everything uncovered", plan)
	}
	if plan.CoverageFraction() != 0 {
		t.Errorf("coverage = %v, want 0", plan.CoverageFraction())
	}
}

func TestEmptyFailures(t *testing.T) {
	plan, err := MakePlan(nil, Budget{}, Options{})
	if err != nil {
		t.Fatalf("MakePlan: %v", err)
	}
	if plan.CoverageFraction() != 1 {
		t.Errorf("empty coverage = %v, want 1", plan.CoverageFraction())
	}
}

func TestBudgetValidation(t *testing.T) {
	if _, err := MakePlan(nil, Budget{SpareRows: -1}, Options{}); err == nil {
		t.Error("negative spare rows accepted")
	}
	if _, err := MakePlan(nil, Budget{WordBits: -64}, Options{}); err == nil {
		t.Error("negative word size accepted")
	}
}

func TestDeterminism(t *testing.T) {
	failures := []memctl.BitAddr{
		addr(3, 1), addr(3, 2), addr(5, 64), addr(5, 65), addr(9, 4000),
	}
	a, err := MakePlan(failures, Budget{SpareRows: 1, ECCBitsPerWord: 1, RemapEntries: 1}, Options{})
	if err != nil {
		t.Fatalf("MakePlan: %v", err)
	}
	b, err := MakePlan(failures, Budget{SpareRows: 1, ECCBitsPerWord: 1, RemapEntries: 1}, Options{})
	if err != nil {
		t.Fatalf("MakePlan: %v", err)
	}
	if len(a.SparedRows) != len(b.SparedRows) || len(a.ECCCovered) != len(b.ECCCovered) ||
		len(a.Remapped) != len(b.Remapped) || len(a.Uncovered) != len(b.Uncovered) {
		t.Error("plans differ across identical runs")
	}
	for i := range a.ECCCovered {
		if a.ECCCovered[i] != b.ECCCovered[i] {
			t.Fatal("ECC assignment order differs")
		}
	}
}

// TestEndToEndWithDetection plans mitigation from an actual detection
// run: classification shrinks the hard-mitigation bill.
func TestEndToEndWithDetection(t *testing.T) {
	// Reuse the core test helpers via a minimal local setup.
	host := newDetectionHost(t)
	tester, err := core.New(host, core.Config{Seed: 1})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	rep, err := tester.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	victims, _, _, err := tester.DiscoverVictims(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	classified, _, err := tester.ClassifyVictims(context.Background(), victims, rep.Neighbor.Distances)
	if err != nil {
		t.Fatalf("ClassifyVictims: %v", err)
	}

	failures := make([]memctl.BitAddr, 0, len(rep.AllFailures))
	for a := range rep.AllFailures {
		failures = append(failures, a)
	}
	budget := Budget{SpareRows: 8, ECCBitsPerWord: 1, RemapEntries: 64}

	plain, err := MakePlan(failures, budget, Options{})
	if err != nil {
		t.Fatalf("MakePlan: %v", err)
	}
	informed, err := MakePlan(failures, budget, Options{
		RefreshManaged: BuildRefreshManaged(classified),
	})
	if err != nil {
		t.Fatalf("MakePlan: %v", err)
	}
	if len(informed.RefreshManaged) == 0 {
		t.Fatal("classification marked nothing refresh-managed")
	}
	// Handing coupling victims to the refresh policy must not reduce
	// total coverage, and should reduce spare-resource consumption.
	if informed.CoverageFraction() < plain.CoverageFraction() {
		t.Errorf("informed coverage %.3f < plain %.3f",
			informed.CoverageFraction(), plain.CoverageFraction())
	}
	plainHard := len(plain.ECCCovered) + len(plain.Remapped) + plain.sparedFailureCount
	informedHard := len(informed.ECCCovered) + len(informed.Remapped) + informed.sparedFailureCount
	if informedHard >= plainHard {
		t.Errorf("informed plan consumes %d hard-mitigated failures vs %d; expected savings",
			informedHard, plainHard)
	}
}
