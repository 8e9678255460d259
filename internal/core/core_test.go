package core

import (
	"context"
	"reflect"
	"testing"

	"parbor/internal/coupling"
	"parbor/internal/dram"
	"parbor/internal/faults"
	"parbor/internal/memctl"
	"parbor/internal/scramble"
)

// testHost builds a single-chip module with full-width rows (needed
// for the paper's level structure) and a victim population dense
// enough for robust ranking at small row counts.
func testHost(t *testing.T, vendor scramble.Vendor, rows int, seed uint64) *memctl.Host {
	t.Helper()
	cc := coupling.DefaultConfig()
	cc.VulnerableRate = 2e-3
	mod, err := dram.NewModule(dram.ModuleConfig{
		Name:     "test-" + vendor.String(),
		Vendor:   vendor,
		Chips:    1,
		Geometry: dram.Geometry{Banks: 1, Rows: rows, Cols: 8192},
		Coupling: cc,
		Faults:   faults.DefaultConfig(),
		Seed:     seed,
	})
	if err != nil {
		t.Fatalf("NewModule: %v", err)
	}
	host, err := memctl.NewHost(mod, 0)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	return host
}

func newTester(t *testing.T, host *memctl.Host) *Tester {
	t.Helper()
	tester, err := New(host, Config{Seed: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tester
}

// TestDetectNeighborsMatchesPaper is the end-to-end reproduction of
// Table 1 and Figure 11: for each vendor profile, the recursive test
// must find exactly the published distance sets with exactly the
// published per-level test counts.
func TestDetectNeighborsMatchesPaper(t *testing.T) {
	tests := []struct {
		vendor     scramble.Vendor
		wantDists  []int
		wantTests  []int
		wantTotal  int
		wantLevels [][]int
	}{
		{
			vendor:    scramble.VendorA,
			wantDists: []int{-48, -16, -8, 8, 16, 48},
			wantTests: []int{2, 8, 8, 24, 48},
			wantTotal: 90,
			wantLevels: [][]int{
				{0},
				{0},
				{-1, 0, 1},
				{-6, -2, -1, 1, 2, 6},
				{-48, -16, -8, 8, 16, 48},
			},
		},
		{
			vendor:    scramble.VendorB,
			wantDists: []int{-64, -1, 1, 64},
			wantTests: []int{2, 8, 8, 24, 24},
			wantTotal: 66,
			wantLevels: [][]int{
				{0},
				{0},
				{-1, 0, 1},
				{-8, 0, 8},
				{-64, -1, 1, 64},
			},
		},
		{
			vendor:    scramble.VendorC,
			wantDists: []int{-49, -33, -16, 16, 33, 49},
			wantTests: []int{2, 8, 8, 24, 48},
			wantTotal: 90,
			wantLevels: [][]int{
				{0},
				{0},
				{-1, 0, 1},
				{-6, -4, -2, 2, 4, 6},
				{-49, -33, -16, 16, 33, 49},
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.vendor.String(), func(t *testing.T) {
			host := testHost(t, tt.vendor, 384, 42)
			tester := newTester(t, host)
			res, err := tester.DetectNeighborsCtx(context.Background())
			if err != nil {
				t.Fatalf("DetectNeighborsCtx: %v", err)
			}
			if res.DiscoveryTests != 10 {
				t.Errorf("discovery tests = %d, want 10", res.DiscoveryTests)
			}
			if !reflect.DeepEqual(res.Distances, tt.wantDists) {
				t.Errorf("final distances = %v, want %v", res.Distances, tt.wantDists)
			}
			if len(res.Levels) != len(tt.wantTests) {
				t.Fatalf("levels = %d, want %d", len(res.Levels), len(tt.wantTests))
			}
			total := 0
			for i, lvl := range res.Levels {
				if lvl.Tests != tt.wantTests[i] {
					t.Errorf("L%d tests = %d, want %d (distances %v)", i+1, lvl.Tests, tt.wantTests[i], lvl.Distances)
				}
				if !reflect.DeepEqual(lvl.Distances, tt.wantLevels[i]) {
					t.Errorf("L%d distances = %v, want %v", i+1, lvl.Distances, tt.wantLevels[i])
				}
				total += lvl.Tests
			}
			if total != tt.wantTotal || res.RecursionTests != tt.wantTotal {
				t.Errorf("total recursion tests = %d (%d), want %d", total, res.RecursionTests, tt.wantTotal)
			}
			if res.SampleSize == 0 {
				t.Error("empty victim sample")
			}
		})
	}
}

// TestFullChipFindsMoreThanRandom is the small-scale version of
// Figure 12: with equal test budgets, the neighbor-aware test must
// uncover more failures than per-bit random patterns.
func TestFullChipFindsMoreThanRandom(t *testing.T) {
	host := testHost(t, scramble.VendorA, 256, 7)
	tester := newTester(t, host)
	rep, err := tester.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	budget := rep.TotalTests()
	if budget < 92 || budget > 140 {
		t.Errorf("PARBOR budget = %d tests, want within the paper's 92-132 ballpark", budget)
	}
	randomHost := testHost(t, scramble.VendorA, 256, 7) // identical chip
	randomTester := newTester(t, randomHost)
	randomFails, err := randomTester.RandomPatternTest(context.Background(), budget)
	if err != nil {
		t.Fatal(err)
	}

	if len(rep.AllFailures) <= len(randomFails) {
		t.Errorf("PARBOR found %d failures, random found %d; want PARBOR > random",
			len(rep.AllFailures), len(randomFails))
	}
	// And random must still find a nontrivial set (the comparison is
	// meaningful only if both testers work).
	if len(randomFails) == 0 {
		t.Error("random test found nothing")
	}
}

// TestFullChipCoversKnownVictims verifies that the neighbor-aware
// full-chip test uncovers the ground-truth victim population almost
// completely: every surround-0 victim whose row polarity makes it
// chargeable must be detected.
func TestFullChipCoversKnownVictims(t *testing.T) {
	host := testHost(t, scramble.VendorB, 192, 9)
	tester := newTester(t, host)
	rep, err := tester.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Collect ground truth from the module (test-only access).
	mod := groundTruthModule(t, scramble.VendorB, 192, 9)
	chip := mod.Chip(0)
	missed, covered := 0, 0
	for row := 0; row < 192; row++ {
		for _, v := range chip.TrueVictims(0, row) {
			l, r, hasL, hasR := chip.Mapping().Neighbors(int(v.Col))
			_ = l
			_ = r
			switch v.Class {
			case coupling.StrongLeft:
				if !hasL {
					continue
				}
			case coupling.StrongRight:
				if !hasR {
					continue
				}
			case coupling.Weak:
				if !hasL || !hasR {
					continue
				}
			}
			if _, ok := chip.RemappedColumns()[v.Col]; ok {
				continue
			}
			addr := memctl.BitAddr{Chip: 0, Bank: 0, Row: int32(row), Col: v.Col}
			if _, ok := rep.FullChipFailures[addr]; ok {
				covered++
			} else {
				missed++
			}
		}
	}
	if covered == 0 {
		t.Fatal("full-chip test covered no ground-truth victims")
	}
	frac := float64(covered) / float64(covered+missed)
	if frac < 0.95 {
		t.Errorf("full-chip coverage of testable victims = %.3f, want >= 0.95 (covered %d, missed %d)", frac, covered, missed)
	}
}

func groundTruthModule(t *testing.T, vendor scramble.Vendor, rows int, seed uint64) *dram.Module {
	t.Helper()
	cc := coupling.DefaultConfig()
	cc.VulnerableRate = 2e-3
	mod, err := dram.NewModule(dram.ModuleConfig{
		Vendor:   vendor,
		Chips:    1,
		Geometry: dram.Geometry{Banks: 1, Rows: rows, Cols: 8192},
		Coupling: cc,
		Faults:   faults.DefaultConfig(),
		Seed:     seed,
	})
	if err != nil {
		t.Fatalf("NewModule: %v", err)
	}
	return mod
}

func TestLevelSizes(t *testing.T) {
	tests := []struct {
		rowBits, first, fanout int
		want                   []int
	}{
		{rowBits: 8192, first: 2, fanout: 8, want: []int{4096, 512, 64, 8, 1}},
		{rowBits: 1024, first: 2, fanout: 8, want: []int{512, 64, 8, 1}},
		{rowBits: 8192, first: 2, fanout: 2, want: []int{4096, 2048, 1024, 512, 256, 128, 64, 32, 16, 8, 4, 2, 1}},
		{rowBits: 16, first: 2, fanout: 8, want: []int{8, 1}},
		{rowBits: 16, first: 16, fanout: 8, want: []int{1}},
	}
	for _, tt := range tests {
		if got := levelSizes(tt.rowBits, tt.first, tt.fanout); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("levelSizes(%d,%d,%d) = %v, want %v", tt.rowBits, tt.first, tt.fanout, got, tt.want)
		}
	}
}

func TestFillRegionPattern(t *testing.T) {
	buf := make([]uint64, 4) // 256 bits
	// failData 1, region [64, 128), victim at 70 (inside region).
	fillRegionPattern(buf, 1, 64, 64, 70)
	for i := 0; i < 256; i++ {
		want := uint64(1)
		if i >= 64 && i < 128 && i != 70 {
			want = 0
		}
		if got := bitAt(buf, i); got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
	// failData 0, region [5, 13), victim outside.
	fillRegionPattern(buf, 0, 5, 8, 100)
	for i := 0; i < 256; i++ {
		want := uint64(0)
		if i >= 5 && i < 13 {
			want = 1
		}
		if got := bitAt(buf, i); got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
	// Single-bit region at a word boundary.
	fillRegionPattern(buf, 1, 63, 1, 0)
	for i := 0; i < 256; i++ {
		want := uint64(1)
		if i == 63 {
			want = 0
		}
		if got := bitAt(buf, i); got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
	// Full-buffer region.
	fillRegionPattern(buf, 1, 0, 256, 9)
	for i := 0; i < 256; i++ {
		want := uint64(0)
		if i == 9 {
			want = 1
		}
		if got := bitAt(buf, i); got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
}

func TestRankDistances(t *testing.T) {
	freq := map[int]int{0: 100, 1: 50, 2: 20, 3: 2}
	got := rankDistances(freq, 0.15)
	if !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("rankDistances = %v, want [0 1 2]", got)
	}
	got = rankDistances(freq, 0.6)
	if !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("rankDistances(0.6) = %v, want [0]", got)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{SampleSize: -1},
		{RankThreshold: 1.5},
		{MarginalHitLimit: -1},
		{FirstSplit: 1},
		{Fanout: 1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("New(nil) succeeded")
	}
	host := testHost(t, scramble.VendorA, 8, 1)
	if _, err := New(host, Config{FirstSplit: 1}); err == nil {
		t.Error("New with bad config succeeded")
	}
}

func TestFailureSetOps(t *testing.T) {
	a := make(FailureSet)
	a.Add([]memctl.BitAddr{{Col: 1}, {Col: 2}})
	b := make(FailureSet)
	b.Add([]memctl.BitAddr{{Col: 2}, {Col: 3}})
	if got := a.Intersect(b); got != 1 {
		t.Errorf("Intersect = %d, want 1", got)
	}
	a.Union(b)
	if len(a) != 3 {
		t.Errorf("after Union len = %d, want 3", len(a))
	}
}

func TestFullChipTestEmptyDistances(t *testing.T) {
	host := testHost(t, scramble.VendorA, 8, 1)
	tester := newTester(t, host)
	if _, _, err := tester.FullChipTestCtx(context.Background(), nil); err == nil {
		t.Error("FullChipTestCtx(nil) succeeded")
	}
}
