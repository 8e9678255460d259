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

// noisyHost builds a two-chip module with the default random-failure
// population, so recursion passes report plenty of flips at columns
// other than the sampled victims'.
func noisyHost(t testing.TB, vendor scramble.Vendor, seed uint64) *memctl.Host {
	t.Helper()
	cc := coupling.DefaultConfig()
	cc.VulnerableRate = 2e-3
	mod, err := dram.NewModule(dram.ModuleConfig{
		Vendor:   vendor,
		Chips:    2,
		Geometry: dram.Geometry{Banks: 2, Rows: 128, Cols: 8192},
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

// referenceLevel is the recursion level as first written: one freshly
// filled pattern row per victim, and hash maps from failing address to
// victim and from victim to region. runLevel must produce exactly its
// reports. ignored counts the failures it discarded because they were
// not at a victim's own column.
func referenceLevel(t *testing.T, tester *Tester, victims []victimInfo, rowBits, parentSize, size int, parentDists []int, ignored *int) LevelReport {
	t.Helper()
	k := parentSize / size
	nParents := rowBits / parentSize
	words := tester.host.Geometry().Words()
	passes := 0
	hits := make([][]int, len(victims))
	for _, dp := range parentDists {
		for j := 0; j < k; j++ {
			var rows []memctl.Row
			var data [][]uint64
			addrToVictim := make(map[memctl.BitAddr]int)
			regionOf := make(map[int]int)
			for vi, v := range victims {
				if v.dead {
					continue
				}
				parentIdx := int(v.col)/parentSize + dp
				if parentIdx < 0 || parentIdx >= nParents {
					continue
				}
				rIdx := parentIdx*k + j
				buf := make([]uint64, words)
				fillRegionPattern(buf, v.failData, rIdx*size, size, int(v.col))
				rows = append(rows, v.row)
				data = append(data, buf)
				addrToVictim[memctl.BitAddr{Chip: int16(v.row.Chip), Bank: int16(v.row.Bank), Row: int32(v.row.Row), Col: v.col}] = vi
				regionOf[vi] = rIdx
			}
			passes++
			fails, err := tester.host.Pass(context.Background(), rows, data, tester.host.WaitMs())
			if err != nil {
				t.Fatalf("reference pass: %v", err)
			}
			for _, a := range fails {
				vi, ok := addrToVictim[a]
				if !ok {
					*ignored++
					continue
				}
				hits[vi] = append(hits[vi], regionOf[vi]-int(victims[vi].col)/size)
			}
		}
	}
	freq := make(map[int]int)
	for vi := range victims {
		if victims[vi].dead {
			continue
		}
		if len(hits[vi]) > tester.cfg.MarginalHitLimit {
			victims[vi].dead = true
			continue
		}
		for _, d := range hits[vi] {
			freq[d]++
		}
	}
	return LevelReport{
		RegionSize:  size,
		Tests:       passes,
		Frequencies: freq,
		Distances:   rankDistances(freq, tester.cfg.RankThreshold),
	}
}

// TestRunLevelMatchesMapReference is the differential guard on the
// recursion bookkeeping: for every vendor over several seeds, on
// twin noisy modules, DetectNeighborsCtx must report per level exactly
// the test counts, distance frequencies and ranked distances of the
// map-based reference, and the reference must actually have discarded
// flips at non-victim columns (the ones a probe pass never reads).
func TestRunLevelMatchesMapReference(t *testing.T) {
	for _, v := range scramble.Vendors() {
		for _, seed := range []uint64{3, 17, 42} {
			got, err := newTester(t, noisyHost(t, v, seed)).DetectNeighborsCtx(context.Background())
			if err != nil {
				t.Fatalf("vendor %v seed %d: DetectNeighborsCtx: %v", v, seed, err)
			}

			ref := newTester(t, noisyHost(t, v, seed))
			victims, _, _, err := ref.discoverVictims(context.Background())
			if err != nil {
				t.Fatalf("vendor %v seed %d: discovery: %v", v, seed, err)
			}
			if got.SampleSize != len(victims) {
				t.Fatalf("vendor %v seed %d: sample %d, reference %d", v, seed, got.SampleSize, len(victims))
			}
			rowBits := ref.host.Geometry().Cols
			sizes := levelSizes(rowBits, ref.cfg.FirstSplit, ref.cfg.Fanout)
			if len(got.Levels) != len(sizes) {
				t.Fatalf("vendor %v seed %d: %d levels, want %d", v, seed, len(got.Levels), len(sizes))
			}
			ignored := 0
			parentSize, parentDists := rowBits, []int{0}
			for i, size := range sizes {
				want := referenceLevel(t, ref, victims, rowBits, parentSize, size, parentDists, &ignored)
				if !reflect.DeepEqual(got.Levels[i], want) {
					t.Fatalf("vendor %v seed %d level %d:\n got  %+v\n want %+v", v, seed, i+1, got.Levels[i], want)
				}
				parentSize, parentDists = size, want.Distances
			}
			if ignored == 0 {
				t.Errorf("vendor %v seed %d: no flip outside a victim column; the probe's single-cell read went unexercised", v, seed)
			}
		}
	}
}

// BenchmarkDetectNeighbors measures the core recursion layer:
// discovery plus every recursion level on a two-chip noisy module,
// including the per-pass bookkeeping that maps probe results to
// victims.
func BenchmarkDetectNeighbors(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		host := noisyHost(b, scramble.VendorA, 42)
		tester, err := New(host, Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := tester.DetectNeighborsCtx(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if res.RecursionTests != 90 {
			b.Fatalf("%d recursion tests, want 90", res.RecursionTests)
		}
	}
}
