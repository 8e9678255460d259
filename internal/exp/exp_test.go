package exp

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"parbor/internal/sim"
)

// fastOpts keeps the experiment tests quick.
func fastOpts() Options {
	return Options{RowsPerChip: 192, Chips: 2, ModulesPerVendor: 1, Seed: 42}
}

func TestTable1MatchesPaper(t *testing.T) {
	rows, err := Table1(context.Background(), fastOpts())
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	want := []Table1Row{
		{Vendor: "A", PerLevel: []int{2, 8, 8, 24, 48}, Total: 90},
		{Vendor: "B", PerLevel: []int{2, 8, 8, 24, 24}, Total: 66},
		{Vendor: "C", PerLevel: []int{2, 8, 8, 24, 48}, Total: 90},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("Table1 = %+v, want %+v", rows, want)
	}
	out := FormatTable1(rows)
	for _, frag := range []string{"L1", "Total", "90", "66"} {
		if !strings.Contains(out, frag) {
			t.Errorf("FormatTable1 output missing %q", frag)
		}
	}
}

func TestFig11FinalDistances(t *testing.T) {
	rows, err := Fig11(context.Background(), fastOpts())
	if err != nil {
		t.Fatalf("Fig11: %v", err)
	}
	want := map[string][]int{
		"A": {-48, -16, -8, 8, 16, 48},
		"B": {-64, -1, 1, 64},
		"C": {-49, -33, -16, 16, 33, 49},
	}
	for _, r := range rows {
		if !reflect.DeepEqual(r.Final, want[r.Vendor]) {
			t.Errorf("vendor %s final = %v, want %v", r.Vendor, r.Final, want[r.Vendor])
		}
		if len(r.PerLevel) != 5 {
			t.Errorf("vendor %s has %d levels, want 5", r.Vendor, len(r.PerLevel))
		}
	}
	if out := FormatFig11(rows); !strings.Contains(out, "L5") {
		t.Error("FormatFig11 output missing L5")
	}
}

func TestFig12ParborWins(t *testing.T) {
	rows, err := Fig12(context.Background(), fastOpts())
	if err != nil {
		t.Fatalf("Fig12: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3 (1 module per vendor)", len(rows))
	}
	for _, r := range rows {
		if r.NewFailures < 0 {
			t.Errorf("module %s: negative new failures %d", r.Module, r.NewFailures)
		}
		if r.Budget < 92 || r.Budget > 140 {
			t.Errorf("module %s: budget %d outside the paper's ballpark", r.Module, r.Budget)
		}
		if r.Parbor == 0 || r.Random == 0 {
			t.Errorf("module %s: degenerate failure counts %+v", r.Module, r)
		}
	}
	if mean := MeanPctIncrease(rows); mean <= 5 || mean >= 60 {
		t.Errorf("mean increase = %.1f%%, want a paper-like value (21.9%% ± a wide margin)", mean)
	}
	if out := FormatFig12(rows); !strings.Contains(out, "21.9%") {
		t.Error("FormatFig12 output missing paper reference")
	}
}

func TestFig13Split(t *testing.T) {
	rows, err := Fig13(context.Background(), fastOpts())
	if err != nil {
		t.Fatalf("Fig13: %v", err)
	}
	for _, r := range rows {
		sum := r.OnlyParbor + r.OnlyRandom + r.Both
		if sum < 99.9 || sum > 100.1 {
			t.Errorf("module %s: split sums to %.2f%%", r.Module, sum)
		}
		if r.OnlyRandom > 10 {
			t.Errorf("module %s: only-random = %.1f%%, want small (paper <= 5%%)", r.Module, r.OnlyRandom)
		}
	}
	if out := FormatFig13(rows); !strings.Contains(out, "Both%") {
		t.Error("FormatFig13 output malformed")
	}
}

func TestFig14RankingSeparation(t *testing.T) {
	rows, err := Fig14(context.Background(), fastOpts())
	if err != nil {
		t.Fatalf("Fig14: %v", err)
	}
	wantFrequent := map[string][]int{
		"A": {-6, -2, -1, 1, 2, 6},
		"B": {-8, 0, 8},
		"C": {-6, -4, -2, 2, 4, 6},
	}
	for _, r := range rows {
		vendor := strings.TrimRight(r.Module, "0123456789")
		freq := map[int]float64{}
		for _, e := range r.Entries {
			freq[e.Distance] = e.Frequency
		}
		for _, d := range wantFrequent[vendor] {
			if freq[d] < 0.10 {
				t.Errorf("module %s: true distance %+d has frequency %.3f, want >= 0.10", r.Module, d, freq[d])
			}
		}
	}
	if out := FormatFig14(rows); !strings.Contains(out, "level 4") {
		t.Error("FormatFig14 output malformed")
	}
}

func TestFig15SampleSizes(t *testing.T) {
	rows, err := Fig15(context.Background(), fastOpts(), []int{50, 200})
	if err != nil {
		t.Fatalf("Fig15: %v", err)
	}
	if len(rows) != 4 { // 2 modules x 2 sample sizes
		t.Fatalf("%d rows, want 4", len(rows))
	}
	// Larger samples must not shrink (and usually sharpen) the set of
	// clearly frequent distances.
	for i := 0; i+1 < len(rows); i += 2 {
		small, big := rows[i], rows[i+1]
		if small.Module != big.Module {
			t.Fatalf("row pairing broken: %s vs %s", small.Module, big.Module)
		}
		if big.SampleSize < small.SampleSize {
			t.Errorf("module %s: sample sizes out of order: %d then %d", small.Module, small.SampleSize, big.SampleSize)
		}
	}
	if out := FormatFig15(rows); !strings.Contains(out, "sample") {
		t.Error("FormatFig15 output malformed")
	}
}

// TestFig15StopsAtSaturation: sample sizes beyond a module's victim
// count give that module one saturated row, not one identical rerun
// per size.
func TestFig15StopsAtSaturation(t *testing.T) {
	rows, err := Fig15(context.Background(), fastOpts(), []int{50, 5000, 10000})
	if err != nil {
		t.Fatalf("Fig15: %v", err)
	}
	var got []string
	for _, r := range rows {
		got = append(got, fmt.Sprintf("%s/%d", r.Module, r.SampleSize))
	}
	if len(rows) != 4 {
		t.Fatalf("rows %v, want 2 per module: sample 50, then one saturated", got)
	}
	for i := 0; i < len(rows); i += 2 {
		small, sat := rows[i], rows[i+1]
		if small.Module != sat.Module || small.SampleSize != 50 || sat.SampleSize <= 50 || sat.SampleSize >= 5000 {
			t.Errorf("rows %v, want per module sample 50 then one row with all its victims (fewer than 5000)", got)
		}
	}
}

func TestFig16SmallRun(t *testing.T) {
	rows, summaries, err := Fig16(context.Background(), Fig16Options{
		Workloads: 2,
		Cores:     4,
		SimNs:     1e6,
		Densities: []sim.Density{sim.Density32Gbit},
		Seed:      3,
	})
	if err != nil {
		t.Fatalf("Fig16: %v", err)
	}
	if len(rows) != 2 || len(summaries) != 1 {
		t.Fatalf("rows=%d summaries=%d, want 2/1", len(rows), len(summaries))
	}
	s := summaries[0]
	if s.DCREFvsBase <= 0 {
		t.Errorf("DC-REF vs base = %+.2f%%, want positive", s.DCREFvsBase)
	}
	if s.RefReductionVsBase < 65 || s.RefReductionVsBase > 80 {
		t.Errorf("refresh reduction vs base = %.1f%%, want about 73%%", s.RefReductionVsBase)
	}
	if s.RefReductionVsRAIDR < 20 || s.RefReductionVsRAIDR > 35 {
		t.Errorf("refresh reduction vs RAIDR = %.1f%%, want about 27.6%%", s.RefReductionVsRAIDR)
	}
	if out := FormatFig16(rows, summaries); !strings.Contains(out, "DC-REF vs RAIDR") {
		t.Error("FormatFig16 output malformed")
	}
	if !strings.Contains(Table2(), "DDR3-1600") {
		t.Error("Table2 output malformed")
	}
}

func TestAppendixProjections(t *testing.T) {
	rows := Appendix()
	if len(rows) != 8 {
		t.Fatalf("%d appendix rows, want 8", len(rows))
	}
	out := FormatAppendix(rows)
	for _, frag := range []string{"49 days", "1115 years", "9.1M years", "745,654X"} {
		if !strings.Contains(out, frag) {
			t.Errorf("appendix output missing %q", frag)
		}
	}
}

func TestRetentionExperiment(t *testing.T) {
	o := fastOpts()
	o.RowsPerChip = 96
	rows, err := Retention(context.Background(), o)
	if err != nil {
		t.Fatalf("Retention: %v", err)
	}
	if len(rows) != 6 { // 3 vendors x 2 pattern sets
		t.Fatalf("%d rows, want 6", len(rows))
	}
	for i := 0; i+1 < len(rows); i += 2 {
		naive, aware := rows[i], rows[i+1]
		if naive.Module != aware.Module {
			t.Fatalf("row pairing broken: %s vs %s", naive.Module, aware.Module)
		}
		// The neighbor-aware profile must find strictly more weak rows
		// at every threshold.
		for _, th := range RetentionThresholds {
			if aware.WeakFrac[th] <= naive.WeakFrac[th] && aware.WeakFrac[th] < 1 {
				t.Errorf("module %s, threshold %v: aware %.3f <= naive %.3f",
					naive.Module, th, aware.WeakFrac[th], naive.WeakFrac[th])
			}
		}
	}
	if out := FormatRetention(rows); !strings.Contains(out, "neighbor-aware") {
		t.Error("FormatRetention output malformed")
	}
}
