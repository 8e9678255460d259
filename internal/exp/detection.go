package exp

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"parbor/internal/core"
	"parbor/internal/memctl"
	"parbor/internal/par"
	"parbor/internal/scramble"
)

// Table1Row is one vendor's per-level test counts (Table 1).
type Table1Row struct {
	Vendor   string
	PerLevel []int
	Total    int
}

// Table1 reproduces Table 1: the number of recursive tests PARBOR
// performs per level for each vendor.
func Table1(ctx context.Context, o Options) ([]Table1Row, error) {
	o = o.withDefaults()
	var rows []Table1Row
	for _, v := range scramble.Vendors() {
		res, err := detect(ctx, v, o)
		if err != nil {
			return nil, fmt.Errorf("exp: table 1, vendor %v: %w", v, err)
		}
		row := Table1Row{Vendor: v.String()}
		for _, lvl := range res.Levels {
			row.PerLevel = append(row.PerLevel, lvl.Tests)
			row.Total += lvl.Tests
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable1 renders Table 1 in the paper's layout.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: Number of tests performed by PARBOR\n")
	fmt.Fprintf(&b, "%-13s", "Manufacturer")
	for i := 1; i <= 5; i++ {
		fmt.Fprintf(&b, "%5s", fmt.Sprintf("L%d", i))
	}
	fmt.Fprintf(&b, "%7s\n", "Total")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s", r.Vendor)
		for _, t := range r.PerLevel {
			fmt.Fprintf(&b, "%5d", t)
		}
		fmt.Fprintf(&b, "%7d\n", r.Total)
	}
	return b.String()
}

// Fig11Row is one vendor's distance sets per recursion level
// (Figure 11).
type Fig11Row struct {
	Vendor    string
	PerLevel  [][]int
	Final     []int
	SampleLen int
}

// Fig11 reproduces Figure 11: the union of neighbor-region distances
// found at each level of the recursion.
func Fig11(ctx context.Context, o Options) ([]Fig11Row, error) {
	o = o.withDefaults()
	var rows []Fig11Row
	for _, v := range scramble.Vendors() {
		res, err := detect(ctx, v, o)
		if err != nil {
			return nil, fmt.Errorf("exp: figure 11, vendor %v: %w", v, err)
		}
		row := Fig11Row{Vendor: v.String(), Final: res.Distances, SampleLen: res.SampleSize}
		for _, lvl := range res.Levels {
			row.PerLevel = append(row.PerLevel, lvl.Distances)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFig11 renders Figure 11 as per-level distance lists.
func FormatFig11(rows []Fig11Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11: Distances of neighbor regions at each level\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "Vendor %s (victim sample %d):\n", r.Vendor, r.SampleLen)
		for i, ds := range r.PerLevel {
			fmt.Fprintf(&b, "  L%d: %v\n", i+1, ds)
		}
	}
	return b.String()
}

// detect runs discovery + recursion on one module of the vendor.
func detect(ctx context.Context, v scramble.Vendor, o Options) (*core.NeighborResult, error) {
	tester, _, err := newTester(moduleName(v, 0), v, o, moduleSeed(o.Seed, v, 0))
	if err != nil {
		return nil, err
	}
	return tester.DetectNeighborsCtx(ctx)
}

// Fig12Row is one module's PARBOR-vs-random comparison (Figure 12).
type Fig12Row struct {
	Module string
	// Budget is the test budget both testers used.
	Budget int
	// Parbor and Random are each tester's total detected failures.
	Parbor int
	Random int
	// NewFailures is |PARBOR \ random| and PctIncrease the increase
	// in total detected failures (the figure's line).
	NewFailures int
	PctIncrease float64
}

// Fig12 reproduces Figure 12: extra failures uncovered by PARBOR over
// an equal-budget random-pattern test, across all modules. Modules
// are measured in parallel (each is an independent deterministic
// unit).
func Fig12(ctx context.Context, o Options) ([]Fig12Row, error) {
	o = o.withDefaults()
	type unit struct {
		name   string
		vendor scramble.Vendor
		seed   uint64
	}
	var units []unit
	for _, v := range scramble.Vendors() {
		for i := 0; i < o.ModulesPerVendor; i++ {
			units = append(units, unit{
				name:   moduleName(v, i),
				vendor: v,
				seed:   moduleSeed(o.Seed, v, i),
			})
		}
	}
	rows := make([]Fig12Row, len(units))
	err := par.Map(ctx, len(units), 0, func(i int) error {
		row, err := fig12Module(ctx, units[i].name, units[i].vendor, o, units[i].seed)
		if err != nil {
			return fmt.Errorf("exp: figure 12, module %s: %w", units[i].name, err)
		}
		rows[i] = *row
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func fig12Module(ctx context.Context, name string, v scramble.Vendor, o Options, seed uint64) (*Fig12Row, error) {
	tester, _, err := newTester(name, v, o, seed)
	if err != nil {
		return nil, err
	}
	rep, err := tester.Run(ctx)
	if err != nil {
		return nil, err
	}
	// Equal-budget random test on an identical twin module.
	rndTester, _, err := newTester(name, v, o, seed)
	if err != nil {
		return nil, err
	}
	random, err := rndTester.RandomPatternTest(ctx, rep.TotalTests())
	if err != nil {
		return nil, err
	}

	newFailures := len(rep.AllFailures) - rep.AllFailures.Intersect(random)
	pct := 0.0
	if len(random) > 0 {
		pct = 100 * float64(newFailures) / float64(len(random))
	}
	return &Fig12Row{
		Module:      name,
		Budget:      rep.TotalTests(),
		Parbor:      len(rep.AllFailures),
		Random:      len(random),
		NewFailures: newFailures,
		PctIncrease: pct,
	}, nil
}

// MeanPctIncrease aggregates the figure's headline (paper: 21.9%).
func MeanPctIncrease(rows []Fig12Row) float64 {
	if len(rows) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range rows {
		sum += r.PctIncrease
	}
	return sum / float64(len(rows))
}

// FormatFig12 renders Figure 12.
func FormatFig12(rows []Fig12Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 12: Extra failures uncovered using PARBOR (equal test budget)\n")
	fmt.Fprintf(&b, "%-8s%8s%10s%10s%14s%12s\n", "Module", "Budget", "PARBOR", "Random", "NewFailures", "Increase%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s%8d%10d%10d%14d%12.1f\n",
			r.Module, r.Budget, r.Parbor, r.Random, r.NewFailures, r.PctIncrease)
	}
	fmt.Fprintf(&b, "Average increase: %.1f%% (paper: 21.9%%)\n", MeanPctIncrease(rows))
	return b.String()
}

// Fig13Row is one module's coverage split (Figure 13).
type Fig13Row struct {
	Module     string
	Total      int // |PARBOR ∪ random|
	OnlyParbor float64
	OnlyRandom float64
	Both       float64
}

// Fig13 reproduces Figure 13: the fraction of all observed failures
// detected only by PARBOR, only by random testing, and by both, for
// the first module of each vendor.
func Fig13(ctx context.Context, o Options) ([]Fig13Row, error) {
	o = o.withDefaults()
	var rows []Fig13Row
	for _, v := range scramble.Vendors() {
		name := moduleName(v, 0)
		seed := moduleSeed(o.Seed, v, 0)
		tester, _, err := newTester(name, v, o, seed)
		if err != nil {
			return nil, err
		}
		rep, err := tester.Run(ctx)
		if err != nil {
			return nil, fmt.Errorf("exp: figure 13, module %s: %w", name, err)
		}
		rndTester, _, err := newTester(name, v, o, seed)
		if err != nil {
			return nil, err
		}
		random, err := rndTester.RandomPatternTest(ctx, rep.TotalTests())
		if err != nil {
			return nil, fmt.Errorf("exp: figure 13, module %s: %w", name, err)
		}

		both := rep.AllFailures.Intersect(random)
		union := len(rep.AllFailures) + len(random) - both
		if union == 0 {
			return nil, fmt.Errorf("exp: figure 13, module %s: no failures at all", name)
		}
		rows = append(rows, Fig13Row{
			Module:     name,
			Total:      union,
			OnlyParbor: 100 * float64(len(rep.AllFailures)-both) / float64(union),
			OnlyRandom: 100 * float64(len(random)-both) / float64(union),
			Both:       100 * float64(both) / float64(union),
		})
	}
	return rows, nil
}

// FormatFig13 renders Figure 13.
func FormatFig13(rows []Fig13Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 13: Coverage of failures (%% of all observed failures)\n")
	fmt.Fprintf(&b, "%-8s%8s%14s%14s%10s\n", "Module", "Total", "OnlyPARBOR%", "OnlyRandom%", "Both%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s%8d%14.1f%14.1f%10.1f\n", r.Module, r.Total, r.OnlyParbor, r.OnlyRandom, r.Both)
	}
	return b.String()
}

// RankingEntry is one distance's normalized frequency.
type RankingEntry struct {
	Distance  int
	Frequency float64 // normalized to the most frequent distance
}

// Fig14Row is one module's level-4 distance ranking (Figure 14).
type Fig14Row struct {
	Module  string
	Entries []RankingEntry
}

// Fig14 reproduces Figure 14: the ranking of neighbor-region
// distances at recursion level 4, normalized to the most frequent
// distance, for the first module of each vendor.
func Fig14(ctx context.Context, o Options) ([]Fig14Row, error) {
	o = o.withDefaults()
	var rows []Fig14Row
	for _, v := range scramble.Vendors() {
		name := moduleName(v, 0)
		tester, _, err := newTester(name, v, o, moduleSeed(o.Seed, v, 0))
		if err != nil {
			return nil, err
		}
		res, err := tester.DetectNeighborsCtx(ctx)
		if err != nil {
			return nil, fmt.Errorf("exp: figure 14, module %s: %w", name, err)
		}
		if len(res.Levels) < 4 {
			return nil, fmt.Errorf("exp: figure 14, module %s: only %d levels", name, len(res.Levels))
		}
		rows = append(rows, Fig14Row{
			Module:  name,
			Entries: normalizeRanking(res.Levels[3].Frequencies),
		})
	}
	return rows, nil
}

func normalizeRanking(freq map[int]int) []RankingEntry {
	max := 0
	for _, c := range freq {
		if c > max {
			max = c
		}
	}
	entries := make([]RankingEntry, 0, len(freq))
	for d, c := range freq {
		entries = append(entries, RankingEntry{Distance: d, Frequency: float64(c) / float64(max)})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Distance < entries[j].Distance })
	return entries
}

// FormatFig14 renders Figure 14.
func FormatFig14(rows []Fig14Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 14: Ranking of regions in recursion level 4 (normalized frequency)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "Module %s:\n", r.Module)
		for _, e := range r.Entries {
			fmt.Fprintf(&b, "  %+4d: %5.2f %s\n", e.Distance, e.Frequency, bar(e.Frequency))
		}
	}
	return b.String()
}

func bar(frac float64) string {
	n := int(frac*40 + 0.5)
	return strings.Repeat("#", n)
}

// Fig15Row is one (module, sample size) ranking (Figure 15).
type Fig15Row struct {
	Module     string
	SampleSize int
	Entries    []RankingEntry
}

// Fig15 reproduces Figure 15: how the level-4 ranking changes with
// the size of the initial victim sample, for modules B1 and C1. The
// paper sweeps 1K/5K/10K/15K victims; since the recursion uses one
// victim per row, the experiment quadruples the per-chip row count so
// the module actually offers 15K+ candidate rows.
//
// sampleSizes ascend. A module with fewer victims than a size gets
// one row for it, sampling all its victims, and none for the larger
// sizes, which would rerun the same detection on the same sample.
func Fig15(ctx context.Context, o Options, sampleSizes []int) ([]Fig15Row, error) {
	o = o.withDefaults()
	o.RowsPerChip *= 4
	if len(sampleSizes) == 0 {
		sampleSizes = []int{1000, 5000, 10000, 15000}
	}
	var rows []Fig15Row
	for _, v := range []scramble.Vendor{scramble.VendorB, scramble.VendorC} {
		name := moduleName(v, 0)
		for _, n := range sampleSizes {
			mod, err := newModule(name, v, o, moduleSeed(o.Seed, v, 0))
			if err != nil {
				return nil, err
			}
			host, err := memctl.NewHostWithConfig(mod, memctl.HostConfig{Recorder: o.Recorder})
			if err != nil {
				return nil, err
			}
			tester, err := core.New(host, core.Config{Seed: o.Seed, SampleSize: n})
			if err != nil {
				return nil, err
			}
			res, err := tester.DetectNeighborsCtx(ctx)
			if err != nil {
				return nil, fmt.Errorf("exp: figure 15, module %s, sample %d: %w", name, n, err)
			}
			rows = append(rows, Fig15Row{
				Module:     name,
				SampleSize: res.SampleSize,
				Entries:    normalizeRanking(res.Levels[3].Frequencies),
			})
			if res.SampleSize < n {
				break
			}
		}
	}
	return rows, nil
}

// FormatFig15 renders Figure 15.
func FormatFig15(rows []Fig15Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 15: Ranking with different victim sample sizes\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "Module %s, sample %d:\n", r.Module, r.SampleSize)
		for _, e := range r.Entries {
			fmt.Fprintf(&b, "  %+4d: %5.2f %s\n", e.Distance, e.Frequency, bar(e.Frequency))
		}
	}
	return b.String()
}
