package core

import (
	"context"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sort"
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

// referenceExtended is second-order detection written the way
// referenceLevel writes a first-order level: per pass, one freshly
// allocated row per live victim with the neutralized pattern set bit
// by bit, a Pass over all of them, and hash maps from failing address
// to victim and from victim to region; a victim whose cell is not
// among the pass's failures survived. It returns the result, or the
// region size of the first level at which no victim survived.
func referenceExtended(t *testing.T, tester *Tester, victims []Victim, distances []int) (*ExtendedResult, int) {
	t.Helper()
	rowBits := tester.host.Geometry().Cols
	words := tester.host.Geometry().Words()
	hitLimit := len(distances) + 16
	dead := make([]bool, len(victims))
	res := &ExtendedResult{Victims: len(victims)}
	parentSize, parentDists := rowBits, []int{0}
	for _, size := range levelSizes(rowBits, tester.cfg.FirstSplit, tester.cfg.Fanout) {
		k := parentSize / size
		nParents := rowBits / parentSize
		passes := 0
		hits := make([][]int, len(victims))
		for _, dp := range parentDists {
			for j := 0; j < k; j++ {
				var rows []memctl.Row
				var data [][]uint64
				addrToVictim := make(map[memctl.BitAddr]int)
				regionOf := make(map[int]int)
				for vi, v := range victims {
					if dead[vi] {
						continue
					}
					parentIdx := int(v.Col)/parentSize + dp
					if parentIdx < 0 || parentIdx >= nParents {
						continue
					}
					rIdx := parentIdx*k + j
					buf := make([]uint64, words)
					for c := 0; c < rowBits; c++ {
						bit := 1 - v.FailData // opposite to the victim...
						if (c >= rIdx*size && c < (rIdx+1)*size) || c == int(v.Col) {
							bit = v.FailData // ...except the region and the victim
						}
						setBitTo(buf, c, bit)
					}
					rows = append(rows, v.Row)
					data = append(data, buf)
					addrToVictim[memctl.BitAddr{Chip: int16(v.Row.Chip), Bank: int16(v.Row.Bank), Row: int32(v.Row.Row), Col: v.Col}] = vi
					regionOf[vi] = rIdx
				}
				passes++
				fails, err := tester.host.Pass(context.Background(), rows, data, tester.host.WaitMs())
				if err != nil {
					t.Fatalf("reference pass: %v", err)
				}
				failed := make(map[int]bool)
				for _, a := range fails {
					if vi, ok := addrToVictim[a]; ok {
						failed[vi] = true
					}
				}
				for vi, rIdx := range regionOf {
					if !failed[vi] {
						hits[vi] = append(hits[vi], rIdx-int(victims[vi].Col)/size)
					}
				}
			}
		}
		res.Tests += passes
		freq := make(map[int]int)
		for vi := range victims {
			if dead[vi] {
				continue
			}
			if len(hits[vi]) > hitLimit {
				dead[vi] = true
				continue
			}
			for _, d := range hits[vi] {
				freq[d]++
			}
		}
		if len(freq) == 0 {
			return nil, size
		}
		level := LevelReport{
			RegionSize:  size,
			Tests:       passes,
			Frequencies: freq,
			Distances:   rankDistances(freq, tester.cfg.RankThreshold),
		}
		res.Levels = append(res.Levels, level)
		parentSize, parentDists = size, level.Distances
	}
	imm := make(map[int]bool)
	for _, d := range distances {
		imm[d] = true
	}
	for _, d := range parentDists {
		if !imm[d] && d != 0 {
			res.Distances = append(res.Distances, d)
		}
	}
	sort.Ints(res.Distances)
	return res, 0
}

// tailGatedRun runs first-order detection, discovery and
// classification, and returns the tail-gated victims with the
// immediate distances: the inputs of second-order detection.
func tailGatedRun(t *testing.T, tester *Tester) ([]Victim, []int) {
	t.Helper()
	ctx := context.Background()
	res, err := tester.DetectNeighborsCtx(ctx)
	if err != nil {
		t.Fatalf("DetectNeighborsCtx: %v", err)
	}
	victims, _, _, err := tester.DiscoverVictims(ctx)
	if err != nil {
		t.Fatalf("DiscoverVictims: %v", err)
	}
	classified, _, err := tester.ClassifyVictims(ctx, victims, res.Distances)
	if err != nil {
		t.Fatalf("ClassifyVictims: %v", err)
	}
	return TailGated(classified), res.Distances
}

// TestExtendedMatchesReference is the differential guard on
// second-order detection: on twin modules brought to the same state by
// the same first-order run, DetectExtendedNeighbors must report
// exactly the reference's levels, test count and distances, or, where
// the reference finds no survivor at some level, fail at that level.
// It covers tailModule and every vendor's noisy modules that have
// tail-gated victims.
func TestExtendedMatchesReference(t *testing.T) {
	type twin struct {
		name  string
		build func() *Tester
	}
	cases := []twin{{"tailModule", func() *Tester { _, tester := tailModule(t); return tester }}}
	for _, v := range scramble.Vendors() {
		for _, seed := range []uint64{3, 17, 42} {
			cases = append(cases, twin{fmt.Sprintf("vendor %v seed %d", v, seed), func() *Tester {
				return newTester(t, noisyHost(t, v, seed))
			}})
		}
	}
	// cmd/parbor's toy module at seed 5: its tail-gated victims all
	// fail at region size 8, so the error path is compared too.
	cases = append(cases, twin{"toy seed 5", func() *Tester {
		cc := coupling.DefaultConfig()
		cc.VulnerableRate = 2e-3
		mod, err := dram.NewModule(dram.ModuleConfig{
			Vendor:   scramble.VendorToy,
			Chips:    8,
			Geometry: dram.Geometry{Banks: 1, Rows: 256, Cols: 1024},
			Coupling: cc,
			Faults:   faults.DefaultConfig(),
			Seed:     5,
		})
		if err != nil {
			t.Fatalf("NewModule: %v", err)
		}
		host, err := memctl.NewHost(mod, 0)
		if err != nil {
			t.Fatalf("NewHost: %v", err)
		}
		return newTester(t, host)
	}})
	compared, completed := 0, 0
	for _, c := range cases {
		tester, ref := c.build(), c.build()
		tail, distances := tailGatedRun(t, tester)
		refTail, refDistances := tailGatedRun(t, ref)
		if !slices.Equal(tail, refTail) || !slices.Equal(distances, refDistances) {
			t.Fatalf("%s: twin modules diverged before second-order detection", c.name)
		}
		if len(tail) == 0 {
			continue
		}
		compared++
		got, err := tester.DetectExtendedNeighbors(context.Background(), tail, distances)
		want, failSize := referenceExtended(t, ref, tail, distances)
		if failSize != 0 {
			wantErr := fmt.Sprintf("core: no tail-gated victim survived at region size %d", failSize)
			if err == nil || err.Error() != wantErr {
				t.Errorf("%s (%d tail victims): error %v, reference fails with %q", c.name, len(tail), err, wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s (%d tail victims): %v; the reference completes with %+v", c.name, len(tail), err, want)
			continue
		}
		completed++
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s (%d tail victims):\n got  %+v\n want %+v", c.name, len(tail), got, want)
		}
	}
	t.Logf("%d runs compared, %d completed every level", compared, completed)
	if completed < 2 {
		t.Errorf("only %d runs completed every level; the comparison is too thin", completed)
	}
	if completed == compared {
		t.Error("no run failed at a level; the error path went unexercised")
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
