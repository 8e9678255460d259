package exp

import (
	"context"
	"fmt"
	"strings"

	"parbor/internal/memctl"
	"parbor/internal/patterns"
	"parbor/internal/retention"
	"parbor/internal/scramble"
)

// RetentionRow is one (module, pattern set) retention profile
// summary.
type RetentionRow struct {
	Module   string
	Patterns string
	Tests    int
	// WeakFrac maps a refresh-interval threshold (ms) to the measured
	// fraction of rows failing below it.
	WeakFrac map[float64]float64
}

// RetentionThresholds are the reporting thresholds (256 ms is RAIDR's
// bin boundary).
var RetentionThresholds = []float64{256, 512, 1024, 4096}

// Retention runs the supporting experiment behind the paper's
// motivation for detection-driven profiling (Sections 1 and 8):
// per-row retention profiles measured with naive solid patterns
// versus PARBOR's neighbor-aware patterns. The naive profile misses
// every coupling failure and reports rows healthier than they are —
// exactly the silent-corruption risk the paper warns about for
// mechanisms like RAIDR when they profile without neighbor knowledge.
func Retention(ctx context.Context, o Options) ([]RetentionRow, error) {
	o = o.withDefaults()
	var rows []RetentionRow
	for _, v := range scramble.Vendors() {
		name := moduleName(v, 0)
		seed := moduleSeed(o.Seed, v, 0)

		// Detect the distances first (on a twin), then profile with
		// both pattern sets on fresh twins.
		tester, _, err := newTester(name, v, o, seed)
		if err != nil {
			return nil, err
		}
		nr, err := tester.DetectNeighborsCtx(ctx)
		if err != nil {
			return nil, fmt.Errorf("exp: retention, module %s: %w", name, err)
		}
		aware, err := patterns.NeighborAware(nr.Distances, scramble.DefaultChunkBits)
		if err != nil {
			return nil, err
		}
		sets := []struct {
			label string
			pats  []patterns.Pattern
		}{
			{label: "solid (naive)", pats: []patterns.Pattern{patterns.Solid()}},
			{label: "neighbor-aware", pats: aware},
		}
		for _, set := range sets {
			mod, err := newModule(name, v, o, seed)
			if err != nil {
				return nil, err
			}
			host, err := memctl.NewHostWithConfig(mod, memctl.HostConfig{Recorder: o.Recorder})
			if err != nil {
				return nil, err
			}
			profiler, err := retention.New(host, retention.Config{MinMs: 64, MaxMs: 4096})
			if err != nil {
				return nil, err
			}
			profile, err := profiler.ProfileModule(ctx, set.pats)
			if err != nil {
				return nil, fmt.Errorf("exp: retention, module %s (%s): %w", name, set.label, err)
			}
			row := RetentionRow{
				Module:   name,
				Patterns: set.label,
				Tests:    profile.Tests,
				WeakFrac: make(map[float64]float64, len(RetentionThresholds)),
			}
			for _, th := range RetentionThresholds {
				row.WeakFrac[th] = profile.WeakRowFraction(th)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatRetention renders the supporting experiment.
func FormatRetention(rows []RetentionRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Supporting experiment: retention profiling, naive vs neighbor-aware patterns\n")
	fmt.Fprintf(&b, "%-8s%-18s%8s", "Module", "Patterns", "Tests")
	for _, th := range RetentionThresholds {
		fmt.Fprintf(&b, "%12s", fmt.Sprintf("<%.0fms%%", th))
	}
	fmt.Fprintf(&b, "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s%-18s%8d", r.Module, r.Patterns, r.Tests)
		for _, th := range RetentionThresholds {
			fmt.Fprintf(&b, "%12.2f", 100*r.WeakFrac[th])
		}
		fmt.Fprintf(&b, "\n")
	}
	fmt.Fprintf(&b, "A solid-pattern profile never applies the worst-case coupling pattern,\n")
	fmt.Fprintf(&b, "so it reports rows healthier than they are; refresh mechanisms binned\n")
	fmt.Fprintf(&b, "on it would corrupt data silently.\n")
	return b.String()
}
