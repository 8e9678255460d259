package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"parbor/internal/memctl"
	"parbor/internal/patterns"
	"parbor/internal/scramble"
)

// discoveryStats counts how often each of discovery's two skip rules
// fired in the reference.
type discoveryStats struct {
	stuck     int // candidates that failed every pass
	extraCols int // candidates dropped because their row had a lower-column one
}

// discoveryRun runs the ten discovery passes on tester's host and
// returns the passes' uniform rows and failure lists.
func discoveryRun(t *testing.T, tester *Tester) ([][]uint64, [][]memctl.BitAddr) {
	t.Helper()
	var all []patterns.Pattern
	for _, p := range patterns.DiscoveryPatterns() {
		all = append(all, p, p.Inverse())
	}
	rows := make([][]uint64, len(all))
	lists := make([][]memctl.BitAddr, len(all))
	for i, p := range all {
		rows[i] = make([]uint64, tester.host.Geometry().Words())
		fails, err := tester.fullPassPattern(context.Background(), p, rows[i])
		if err != nil {
			t.Fatalf("discovery pass %d: %v", i, err)
		}
		lists[i] = fails
	}
	return rows, lists
}

// referenceVictims is victim selection as first written: a hash map
// from failing address to the passes it failed, a map from row to its
// lowest-column victim, and a final sort. Discovery must return
// exactly its victims and discovered set for the same pass lists.
func referenceVictims(tester *Tester, rows [][]uint64, lists [][]memctl.BitAddr, stats *discoveryStats) ([]Victim, FailureSet) {
	type obs struct {
		failMask  uint32 // bit i set: failed in pass i
		firstPass int8
	}
	seen := make(map[memctl.BitAddr]*obs)
	discovered := make(FailureSet)
	for i, fails := range lists {
		discovered.Add(fails)
		for _, a := range fails {
			o := seen[a]
			if o == nil {
				o = &obs{firstPass: int8(i)}
				seen[a] = o
			}
			o.failMask |= 1 << uint(i)
		}
	}

	allMask := uint32(1)<<uint(len(rows)) - 1
	perRow := make(map[memctl.Row]Victim)
	perRowCands := make(map[memctl.Row]int)
	for a, o := range seen {
		if o.failMask == allMask {
			stats.stuck++
			continue
		}
		r := memctl.Row{Chip: int(a.Chip), Bank: int(a.Bank), Row: int(a.Row)}
		perRowCands[r]++
		if prev, ok := perRow[r]; ok && prev.Col <= a.Col {
			continue
		}
		perRow[r] = Victim{
			Row:      r,
			Col:      a.Col,
			FailData: bitAt(rows[o.firstPass], int(a.Col)),
		}
	}
	for _, n := range perRowCands {
		stats.extraCols += n - 1
	}

	victims := make([]Victim, 0, len(perRow))
	for _, v := range perRow {
		victims = append(victims, v)
	}
	sort.Slice(victims, func(i, j int) bool {
		a, b := victims[i], victims[j]
		if a.Row.Chip != b.Row.Chip {
			return a.Row.Chip < b.Row.Chip
		}
		if a.Row.Bank != b.Row.Bank {
			return a.Row.Bank < b.Row.Bank
		}
		if a.Row.Row != b.Row.Row {
			return a.Row.Row < b.Row.Row
		}
		return a.Col < b.Col
	})
	if len(victims) > tester.cfg.SampleSize {
		victims = victims[:tester.cfg.SampleSize]
	}
	return victims, discovered
}

// withSyntheticCells returns copies of the pass lists with a cell
// added one column left of a row's first pass-0 failure: in every
// third row one that fails every pass (stuck), and in the row after it
// one that fails only passes 0 and 1, a pattern and its inverse, so
// its failing data depends on which pass counts as its first. Real
// passes practically never produce either: a cell fails only while
// charged, which the patterns pair up so that it is in exactly half
// the passes and always under the same data, bar the rare random soft
// error.
func withSyntheticCells(lists [][]memctl.BitAddr) [][]memctl.BitAddr {
	var stuck, twoPass []memctl.BitAddr
	rows := 0
	for i, a := range lists[0] {
		if i > 0 && a.Row == lists[0][i-1].Row && a.Bank == lists[0][i-1].Bank && a.Chip == lists[0][i-1].Chip {
			continue
		}
		rows++
		if a.Col == 0 {
			continue
		}
		a.Col--
		switch rows % 3 {
		case 0:
			stuck = append(stuck, a)
		case 1:
			twoPass = append(twoPass, a)
		}
	}
	out := make([][]memctl.BitAddr, len(lists))
	for i, fails := range lists {
		out[i] = slices.Concat(fails, stuck)
		if i < 2 {
			out[i] = append(out[i], twoPass...)
		}
		slices.SortFunc(out[i], memctl.CompareAddrs)
		out[i] = slices.Compact(out[i])
	}
	return out
}

// TestDiscoverVictimsMatchesMapReference is the differential guard on
// discovery's merge-walk bookkeeping: for every vendor over several
// seeds, on twin noisy modules, DiscoverVictims must return exactly
// the map-based reference's victims (row, column and failing data),
// test count and discovered set. The same pass lists with synthetic
// cells added (withSyntheticCells) must select identically too, and
// the runs must have exercised both skip rules: a cell failing every
// pass, and a row with more than one candidate.
func TestDiscoverVictimsMatchesMapReference(t *testing.T) {
	var stats discoveryStats
	for _, v := range scramble.Vendors() {
		for _, seed := range []uint64{3, 17, 42} {
			victims, tests, discovered, err := newTester(t, noisyHost(t, v, seed)).DiscoverVictims(context.Background())
			if err != nil {
				t.Fatalf("vendor %v seed %d: DiscoverVictims: %v", v, seed, err)
			}
			ref := newTester(t, noisyHost(t, v, seed))
			rows, lists := discoveryRun(t, ref)
			if tests != len(rows) {
				t.Errorf("vendor %v seed %d: %d tests, reference %d", v, seed, tests, len(rows))
			}
			wantVictims, wantDiscovered := referenceVictims(ref, rows, lists, &stats)
			checkVictims(t, fmt.Sprintf("vendor %v seed %d", v, seed), victims, discovered, wantVictims, wantDiscovered)

			synthetic := withSyntheticCells(lists)
			var cands, scratch []candidate
			for i, fails := range synthetic {
				cands, scratch = mergeCandidates(scratch[:0], cands, fails, 1<<uint(i)), cands
			}
			victims, discovered = ref.selectVictims(cands, rows)
			wantVictims, wantDiscovered = referenceVictims(ref, rows, synthetic, &stats)
			checkVictims(t, fmt.Sprintf("vendor %v seed %d with synthetic cells", v, seed), victims, discovered, wantVictims, wantDiscovered)
		}
	}
	t.Logf("skip rules: %d stuck cells, %d extra candidates in shared rows", stats.stuck, stats.extraCols)
	if stats.stuck == 0 {
		t.Error("no cell failed every pass; the stuck-cell rule went unexercised")
	}
	if stats.extraCols == 0 {
		t.Error("no row had two candidates; the lowest-column rule went unexercised")
	}
}

// checkVictims fails the test unless discovery's victims and
// discovered set equal the reference's.
func checkVictims(t *testing.T, name string, victims []Victim, discovered FailureSet, wantVictims []Victim, wantDiscovered FailureSet) {
	t.Helper()
	if len(victims) != len(wantVictims) {
		t.Fatalf("%s: %d victims, reference %d", name, len(victims), len(wantVictims))
	}
	for i := range victims {
		if victims[i] != wantVictims[i] {
			t.Fatalf("%s: victim %d = %+v, reference %+v", name, i, victims[i], wantVictims[i])
		}
	}
	if !reflect.DeepEqual(discovered, wantDiscovered) {
		t.Errorf("%s: discovered %d cells (checksum %s), reference %d (%s)",
			name, len(discovered), discovered.Checksum(), len(wantDiscovered), wantDiscovered.Checksum())
	}
}
