package core

import (
	"context"
	"reflect"
	"testing"

	"parbor/internal/coupling"
	"parbor/internal/dram"
	"parbor/internal/memctl"
	"parbor/internal/rng"
	"parbor/internal/scramble"
)

// randomLaneMapping builds a vendor-A-style mapping with a random
// physical layout: 8 lanes per 128-bit chunk, all laid out by one
// shared random permutation of the 16 per-lane indices (the
// regularity across lanes mirrors real chips). The resulting
// neighbor-distance set is 8x the permutation's adjacent deltas:
// arbitrary, but known exactly.
func randomLaneMapping(t *testing.T, seed uint64) *scramble.Mapping {
	t.Helper()
	src := rng.New(seed).Split("lane-order")
	order := src.Perm(16)
	segs := make([][]int, 0, 8)
	for lane := 0; lane < 8; lane++ {
		seg := make([]int, len(order))
		for i, m := range order {
			seg[i] = 8*m + lane
		}
		segs = append(segs, seg)
	}
	m, err := scramble.FromSegments(scramble.VendorLinear, 128, segs)
	if err != nil {
		t.Fatalf("FromSegments: %v", err)
	}
	return m
}

// TestDetectRecoversRandomMappings is the end-to-end correctness
// property: for arbitrary (randomly drawn) scrambling layouts, the
// full detection pipeline — victim discovery with generic patterns,
// parallel recursion, ranking — must recover exactly the mapping's
// true neighbor-distance set, using nothing but the memory-controller
// interface.
func TestDetectRecoversRandomMappings(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed end-to-end property test")
	}
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			mapping := randomLaneMapping(t, seed)
			mod, err := dram.NewModule(dram.ModuleConfig{
				Mapping: mapping,
				Vendor:  scramble.VendorLinear, // overridden by Mapping
				Chips:   1,
				Geometry: dram.Geometry{
					Banks: 1, Rows: 768, Cols: 8192,
				},
				Coupling: coupling.Config{
					// Dense, deterministic victims: the property is
					// about the algorithm, not about noise robustness
					// (other tests cover that).
					VulnerableRate:  6e-3,
					StrongLeftFrac:  0.4,
					StrongRightFrac: 0.4,
					RetentionMinMs:  100,
					RetentionMaxMs:  100,
				},
				Seed: seed * 977,
			})
			if err != nil {
				t.Fatalf("NewModule: %v", err)
			}
			host, err := memctl.NewHost(mod, 0)
			if err != nil {
				t.Fatalf("NewHost: %v", err)
			}
			// The module is noise-free, so the ranking threshold can
			// sit low: the property under test is recovery of an
			// arbitrary layout, not noise filtering (other tests
			// cover that).
			tester, err := New(host, Config{Seed: seed, RankThreshold: 0.04})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			res, err := tester.DetectNeighborsCtx(context.Background())
			if err != nil {
				t.Fatalf("DetectNeighbors (mapping distances %v): %v", mapping.Distances(), err)
			}
			if !reflect.DeepEqual(res.Distances, mapping.Distances()) {
				t.Errorf("seed %d: detected %v, mapping has %v", seed, res.Distances, mapping.Distances())
			}
		})
	}
}

// TestFullChipSoundOnRandomMapping: on a noise-free chip, every
// failure the neighbor-aware full-chip test reports must be a genuine
// coupling victim per ground truth (no false positives), for a random
// layout.
func TestFullChipSoundOnRandomMapping(t *testing.T) {
	mapping := randomLaneMapping(t, 11)
	mod, err := dram.NewModule(dram.ModuleConfig{
		Mapping:  mapping,
		Vendor:   scramble.VendorLinear,
		Chips:    1,
		Geometry: dram.Geometry{Banks: 1, Rows: 128, Cols: 8192},
		Coupling: coupling.Config{
			VulnerableRate:  2e-3,
			StrongLeftFrac:  0.4,
			StrongRightFrac: 0.4,
			RetentionMinMs:  100,
			RetentionMaxMs:  100,
		},
		Seed: 4242,
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
	fails, _, err := tester.FullChipTestCtx(context.Background(), mapping.Distances())
	if err != nil {
		t.Fatalf("FullChipTestCtx: %v", err)
	}
	if len(fails) == 0 {
		t.Fatal("no failures found")
	}
	chip := mod.Chip(0)
	truth := make(map[memctl.BitAddr]struct{})
	for row := 0; row < 128; row++ {
		for _, v := range chip.TrueVictims(0, row) {
			truth[memctl.BitAddr{Row: int32(row), Col: v.Col}] = struct{}{}
		}
	}
	for a := range fails {
		if _, ok := truth[a]; !ok {
			t.Errorf("false positive at %+v", a)
		}
	}
}
