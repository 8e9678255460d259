package retention

import (
	"context"
	"math"
	"testing"

	"parbor/internal/coupling"
	"parbor/internal/dram"
	"parbor/internal/memctl"
	"parbor/internal/patterns"
	"parbor/internal/scramble"
)

// profiledHost builds a quiet module with a controlled victim
// population: all victims fail at exactly 500 ms under worst-case
// content.
func profiledHost(t *testing.T, vulnRate float64) *memctl.Host {
	t.Helper()
	mod, err := dram.NewModule(dram.ModuleConfig{
		Vendor: scramble.VendorA,
		Chips:  1,
		// Small geometry: the profiler sweeps many full passes.
		Geometry: dram.Geometry{Banks: 1, Rows: 128, Cols: 1024},
		Coupling: coupling.Config{
			VulnerableRate:  vulnRate,
			StrongLeftFrac:  0.5,
			StrongRightFrac: 0.5,
			RetentionMinMs:  500,
			RetentionMaxMs:  500,
		},
		Seed: 21,
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

// neighborAware returns the worst-case stress patterns for vendor A.
func neighborAware(t *testing.T) []patterns.Pattern {
	t.Helper()
	pats, err := patterns.NeighborAware([]int{-48, -16, -8, 8, 16, 48}, 128)
	if err != nil {
		t.Fatalf("NeighborAware: %v", err)
	}
	return pats
}

func TestProfileFindsRetentionThreshold(t *testing.T) {
	host := profiledHost(t, 0.01)
	p, err := New(host, Config{MinMs: 64, MaxMs: 2048})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	profile, err := p.ProfileModule(context.Background(), neighborAware(t))
	if err != nil {
		t.Fatalf("ProfileModule: %v", err)
	}
	// Victims fail at 500 ms; the log-2 schedule probes 512 ms first.
	weakRows := 0
	for _, r := range profile.Rows {
		if r.MinRetentionMs == NoFailure {
			continue
		}
		weakRows++
		if r.MinRetentionMs != 512 {
			t.Errorf("row %+v: min retention %v ms, want 512", r.Row, r.MinRetentionMs)
		}
		if r.FailingCells == 0 {
			t.Errorf("row %+v: failing row with zero failing cells", r.Row)
		}
	}
	if weakRows == 0 {
		t.Fatal("profile found no weak rows despite 1% victim rate")
	}
	if got := profile.WeakRowFraction(256); got != 0 {
		t.Errorf("WeakRowFraction(256) = %v, want 0 (all victims at 500 ms)", got)
	}
	if got := profile.WeakRowFraction(1024); got == 0 {
		t.Error("WeakRowFraction(1024) = 0, want positive")
	}
}

// TestNaiveProfileOverestimates is the paper's motivating claim for
// profiling with neighbor-aware patterns: a solid-pattern profile
// misses coupling failures entirely and reports every row healthy.
func TestNaiveProfileOverestimates(t *testing.T) {
	host := profiledHost(t, 0.01)
	p, err := New(host, Config{MinMs: 64, MaxMs: 2048})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	solid := []patterns.Pattern{patterns.Solid()}
	naive, err := p.ProfileModule(context.Background(), solid)
	if err != nil {
		t.Fatalf("ProfileModule: %v", err)
	}
	if got := naive.WeakRowFraction(4096); got != 0 {
		t.Errorf("solid-pattern profile found weak fraction %v, want 0 (coupling never stressed)", got)
	}

	aware, err := New(host, Config{MinMs: 64, MaxMs: 2048})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	honest, err := aware.ProfileModule(context.Background(), neighborAware(t))
	if err != nil {
		t.Fatalf("ProfileModule: %v", err)
	}
	if honest.WeakRowFraction(1024) <= naive.WeakRowFraction(1024) {
		t.Error("neighbor-aware profile should find strictly more weak rows than the solid profile")
	}
}

func TestScheduleLogSpaced(t *testing.T) {
	host := profiledHost(t, 0)
	p, err := New(host, Config{MinMs: 64, MaxMs: 1024, StepsPerOctave: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got := p.Schedule()
	want := []float64{64, 128, 256, 512, 1024}
	if len(got) != len(want) {
		t.Fatalf("schedule %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 0.01 {
			t.Errorf("schedule[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	p2, err := New(host, Config{MinMs: 64, MaxMs: 256, StepsPerOctave: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := p2.Schedule(); len(got) != 5 { // 64, 90.5, 128, 181, 256
		t.Errorf("2-steps-per-octave schedule has %d entries, want 5: %v", len(got), got)
	}
}

func TestProfileCountsTests(t *testing.T) {
	host := profiledHost(t, 0)
	p, err := New(host, Config{MinMs: 64, MaxMs: 256})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	profile, err := p.ProfileModule(context.Background(), patterns.DiscoveryPatterns()[:2])
	if err != nil {
		t.Fatalf("ProfileModule: %v", err)
	}
	// 3 waits x 2 patterns x 2 polarities.
	if profile.Tests != 12 {
		t.Errorf("Tests = %d, want 12", profile.Tests)
	}
	if host.Passes() != 12 {
		t.Errorf("host passes = %d, want 12", host.Passes())
	}
}

func TestHistogram(t *testing.T) {
	host := profiledHost(t, 0.0005) // ~0.5 victims/row: some rows stay clean
	p, err := New(host, Config{MinMs: 64, MaxMs: 1024})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	profile, err := p.ProfileModule(context.Background(), neighborAware(t))
	if err != nil {
		t.Fatalf("ProfileModule: %v", err)
	}
	h := profile.Histogram()
	total := 0
	for _, n := range h {
		total += n
	}
	if total != len(profile.Rows) {
		t.Errorf("histogram covers %d rows, want %d", total, len(profile.Rows))
	}
	if h[NoFailure] == 0 {
		t.Error("expected some rows to never fail")
	}
}

func TestConfigValidation(t *testing.T) {
	host := profiledHost(t, 0)
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil host accepted")
	}
	if _, err := New(host, Config{MinMs: 100, MaxMs: 50}); err == nil {
		t.Error("inverted bounds accepted")
	}
	if _, err := New(host, Config{StepsPerOctave: -1}); err == nil {
		t.Error("negative steps accepted")
	}
	p, err := New(host, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := p.ProfileModule(context.Background(), nil); err == nil {
		t.Error("empty pattern set accepted")
	}
}
