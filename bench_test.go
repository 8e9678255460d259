// Benchmarks that regenerate every table and figure of the paper's
// evaluation (one benchmark per experiment) plus ablations of the
// design choices DESIGN.md calls out. Each benchmark runs the
// experiment, asserts its paper-matching shape properties, and
// reports the headline quantity as a custom metric.
//
//	go test -bench=. -benchmem
package parbor_test

import (
	"context"
	"testing"
	"time"

	"parbor"
	"parbor/internal/exp"
	"parbor/internal/patterns"
	"parbor/internal/sim"
)

// benchOpts keeps the detection benchmarks to a few seconds each.
func benchOpts() exp.Options {
	return exp.Options{RowsPerChip: 256, Chips: 2, ModulesPerVendor: 2, Seed: 42}
}

// BenchmarkTable1TestCounts regenerates Table 1: per-level recursive
// test counts (A 90, B 66, C 90).
func BenchmarkTable1TestCounts(b *testing.B) {
	want := map[string]int{"A": 90, "B": 66, "C": 90}
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table1(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Total != want[r.Vendor] {
				b.Fatalf("vendor %s: %d tests, paper says %d", r.Vendor, r.Total, want[r.Vendor])
			}
		}
	}
	b.ReportMetric(90, "tests/vendorA")
	b.ReportMetric(66, "tests/vendorB")
}

// BenchmarkFig11Distances regenerates Figure 11: the per-level
// distance sets, ending in each vendor's true neighbor distances.
func BenchmarkFig11Distances(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig11(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			truth, err := parbor.NewMapping(vendorByName(b, r.Vendor))
			if err != nil {
				b.Fatal(err)
			}
			if !equalInts(r.Final, truth.Distances()) {
				b.Fatalf("vendor %s: distances %v, ground truth %v", r.Vendor, r.Final, truth.Distances())
			}
		}
	}
}

// BenchmarkFig12ExtraFailures regenerates Figure 12: extra failures
// over an equal-budget random test (paper average: +21.9%).
func BenchmarkFig12ExtraFailures(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig12(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		mean = exp.MeanPctIncrease(rows)
		if mean <= 5 {
			b.Fatalf("mean increase %.1f%%, want clearly positive (paper: 21.9%%)", mean)
		}
		for _, r := range rows {
			if r.NewFailures < 0 {
				b.Fatalf("module %s: PARBOR found nothing new", r.Module)
			}
		}
	}
	b.ReportMetric(mean, "%increase")
}

// BenchmarkFig13Coverage regenerates Figure 13: the only-PARBOR /
// only-random / both split (paper: 20-30% only-PARBOR, <=5%
// only-random).
func BenchmarkFig13Coverage(b *testing.B) {
	var worstOnlyRandom float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig13(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		worstOnlyRandom = 0
		for _, r := range rows {
			if r.OnlyRandom > worstOnlyRandom {
				worstOnlyRandom = r.OnlyRandom
			}
			if r.OnlyRandom > 10 {
				b.Fatalf("module %s: only-random %.1f%%, want small", r.Module, r.OnlyRandom)
			}
		}
	}
	b.ReportMetric(worstOnlyRandom, "%only-random-max")
}

// BenchmarkFig14Ranking regenerates Figure 14: level-4 distance
// ranking with the true distances clearly frequent.
func BenchmarkFig14Ranking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig14(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			top := 0.0
			for _, e := range r.Entries {
				if e.Frequency > top {
					top = e.Frequency
				}
			}
			if top != 1.0 {
				b.Fatalf("module %s: ranking not normalized (top %.2f)", r.Module, top)
			}
		}
	}
}

// BenchmarkFig15SampleSize regenerates Figure 15: ranking stability
// across victim sample sizes.
func BenchmarkFig15SampleSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig15(context.Background(), benchOpts(), []int{100, 400})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatalf("%d rows, want 4", len(rows))
		}
	}
}

// BenchmarkFig16DCREF regenerates Figure 16: DC-REF vs RAIDR vs
// baseline (paper: +18% over baseline at 32 Gbit, +3.0% over RAIDR,
// 73% fewer refreshes).
func BenchmarkFig16DCREF(b *testing.B) {
	var s exp.Fig16Summary
	for i := 0; i < b.N; i++ {
		_, summaries, err := exp.Fig16(context.Background(), exp.Fig16Options{
			Workloads: 4,
			Cores:     8,
			SimNs:     1e6,
			Densities: []sim.Density{sim.Density32Gbit},
			Seed:      42,
		})
		if err != nil {
			b.Fatal(err)
		}
		s = summaries[0]
		if s.DCREFvsBase <= 0 || s.DCREFvsRAIDR <= -1 {
			b.Fatalf("DC-REF does not win: vs base %+.1f%%, vs RAIDR %+.1f%%", s.DCREFvsBase, s.DCREFvsRAIDR)
		}
		if s.RefReductionVsBase < 65 || s.RefReductionVsBase > 80 {
			b.Fatalf("refresh reduction %.1f%%, paper says 73%%", s.RefReductionVsBase)
		}
	}
	b.ReportMetric(s.DCREFvsBase, "%perf-vs-base")
	b.ReportMetric(s.RefReductionVsBase, "%fewer-refreshes")
}

// BenchmarkAppendixTestTime regenerates the Appendix's analytic
// test-time projections.
func BenchmarkAppendixTestTime(b *testing.B) {
	m := parbor.NewTestTimeModel()
	var days float64
	for i := 0; i < b.N; i++ {
		d, err := m.NaiveSearch(8192, 2)
		if err != nil {
			b.Fatal(err)
		}
		days = d.Hours() / 24
		if days < 45 || days > 55 {
			b.Fatalf("O(n^2) projection %.1f days, paper says 49", days)
		}
	}
	b.ReportMetric(days, "days-naive-pairwise")
}

// BenchmarkAblationFanout compares the paper's 8-way subdivision with
// binary subdivision: binary needs more levels but not fewer total
// tests — the 8-way split is what keeps the level count at five.
func BenchmarkAblationFanout(b *testing.B) {
	run := func(fanout int) (tests, levels int) {
		host := benchHost(b, parbor.VendorA, 43)
		tester, err := parbor.NewTester(host, parbor.DetectConfig{Fanout: fanout, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		res, err := tester.DetectNeighborsCtx(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		return res.RecursionTests, len(res.Levels)
	}
	var t8, t2, l8, l2 int
	for i := 0; i < b.N; i++ {
		t8, l8 = run(8)
		t2, l2 = run(2)
		if l2 <= l8 {
			b.Fatalf("binary split used %d levels, 8-way %d; expected more", l2, l8)
		}
		if t2 < t8 {
			b.Fatalf("binary split used %d tests, 8-way %d; binary's extra levels must not come out cheaper overall", t2, t8)
		}
	}
	b.ReportMetric(float64(t8), "tests/fanout8")
	b.ReportMetric(float64(t2), "tests/fanout2")
}

// BenchmarkAblationRankThreshold sweeps the ranking threshold: too
// low admits noise distances, too high loses true ones.
func BenchmarkAblationRankThreshold(b *testing.B) {
	run := func(th float64) int {
		host := benchHost(b, parbor.VendorA, 44)
		tester, err := parbor.NewTester(host, parbor.DetectConfig{RankThreshold: th, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		res, err := tester.DetectNeighborsCtx(context.Background())
		if err != nil {
			return -1
		}
		return len(res.Distances)
	}
	var n10, n90 int
	for i := 0; i < b.N; i++ {
		n10 = run(0.10)
		n90 = run(0.90)
		if n10 != 6 {
			b.Fatalf("threshold 0.10 found %d distances, want vendor A's 6", n10)
		}
		if n90 >= n10 {
			b.Fatalf("threshold 0.90 kept %d distances, expected fewer than %d (overfiltering)", n90, n10)
		}
	}
	b.ReportMetric(float64(n10), "distances/th0.10")
	b.ReportMetric(float64(n90), "distances/th0.90")
}

// BenchmarkAblationParallelRows contrasts PARBOR's parallel-row
// testing with serial single-victim testing: a single victim reveals
// only its own strongly coupled side, so the distance set stays
// incomplete no matter how many tests that victim gets.
func BenchmarkAblationParallelRows(b *testing.B) {
	var parallel, serial int
	for i := 0; i < b.N; i++ {
		host := benchHost(b, parbor.VendorA, 45)
		tester, err := parbor.NewTester(host, parbor.DetectConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		res, err := tester.DetectNeighborsCtx(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		parallel = len(res.Distances)

		host = benchHost(b, parbor.VendorA, 45)
		tester, err = parbor.NewTester(host, parbor.DetectConfig{SampleSize: 1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		res, err = tester.DetectNeighborsCtx(context.Background())
		if err != nil {
			// A lone victim can dead-end entirely; that is the point.
			serial = 0
			continue
		}
		serial = len(res.Distances)
		if serial >= parallel {
			b.Fatalf("single-victim run found %d distances, parallel %d; expected fewer", serial, parallel)
		}
	}
	b.ReportMetric(float64(parallel), "distances/parallel")
	b.ReportMetric(float64(serial), "distances/serial")
}

// BenchmarkAblationCompactPatterns compares the safe one-hot-group
// full-chip patterns against the paper's compact 8-round scheme for
// vendor C: the compact scheme halves the rounds but misses victims
// that need aggregate tail interference.
func BenchmarkAblationCompactPatterns(b *testing.B) {
	dists := []int{-49, -33, -16, 16, 33, 49}
	var safeRounds, compactRounds int
	for i := 0; i < b.N; i++ {
		safe, err := patterns.NeighborAware(dists, 128)
		if err != nil {
			b.Fatal(err)
		}
		compact, err := patterns.NeighborAwareCompact(dists, 128)
		if err != nil {
			b.Fatal(err)
		}
		safeRounds, compactRounds = len(safe), len(compact)
		if compactRounds >= safeRounds {
			b.Fatalf("compact scheme uses %d rounds vs %d; expected fewer", compactRounds, safeRounds)
		}
	}
	b.ReportMetric(float64(safeRounds), "rounds/safe")
	b.ReportMetric(float64(compactRounds), "rounds/compact")
}

// BenchmarkAblationDCREFColdStart compares primed DC-REF (resident
// data classified at boot) against a conservative cold start in which
// every weak row begins on the fast interval: the cold start behaves
// like RAIDR until writes reclassify rows.
func BenchmarkAblationDCREFColdStart(b *testing.B) {
	run := func(matchProb float64) float64 {
		wl := parbor.Workloads(1, 4, 7)[0]
		for i := range wl {
			wl[i].ContentMatchProb = matchProb
		}
		res, err := parbor.RunSim(parbor.SimConfig{
			Workload: wl,
			Policy:   parbor.RefreshDCREF,
			Density:  parbor.Density32Gbit,
			SimNs:    1e6,
			Seed:     5,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.FastRowFrac
	}
	var primed, cold float64
	for i := 0; i < b.N; i++ {
		primed = run(0.165)
		cold = run(1.0)
		if cold <= primed {
			b.Fatalf("cold start fast-frac %.3f <= primed %.3f; expected more conservative", cold, primed)
		}
	}
	b.ReportMetric(100*primed, "%fast-primed")
	b.ReportMetric(100*cold, "%fast-cold")
}

// BenchmarkObsOverhead guards the cost of the observability layer on
// the detection hot path: a full-module write-wait-read sweep with a
// live Collector attached versus the recorder-free host. The enabled
// path adds two atomic increments per row operation, so the measured
// overhead should stay within the noise floor (the issue budget is
// 2%); the assertion uses a deliberately loose bound so it only trips
// on structural regressions (a lock or allocation sneaking into the
// per-row path), not on scheduler jitter.
func BenchmarkObsOverhead(b *testing.B) {
	build := func(rec parbor.Recorder) *parbor.Host {
		cc := parbor.DefaultCouplingConfig()
		cc.VulnerableRate = 2e-3
		mod, err := parbor.NewModule(parbor.ModuleConfig{
			Name:     "bench-obs",
			Vendor:   parbor.VendorA,
			Chips:    2,
			Geometry: parbor.Geometry{Banks: 1, Rows: 256, Cols: 8192},
			Coupling: cc,
			Faults:   parbor.DefaultFaultsConfig(),
			Seed:     42,
			Recorder: rec,
		})
		if err != nil {
			b.Fatal(err)
		}
		host, err := parbor.NewHostWithConfig(mod, parbor.HostConfig{WaitMs: 512, Recorder: rec})
		if err != nil {
			b.Fatal(err)
		}
		return host
	}
	fill := func(_ parbor.Row, buf []uint64) []uint64 {
		for i := range buf {
			buf[i] = 0xaaaaaaaaaaaaaaaa
		}
		return buf
	}
	measure := func(host *parbor.Host, n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := host.FullPass(context.Background(), fill, host.WaitMs()); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start)
	}

	off := build(nil)
	on := build(parbor.NewCollector())
	// Warm both hosts before timing.
	measure(off, 1)
	measure(on, 1)
	var overheadPct float64
	for i := 0; i < b.N; i++ {
		const passes = 4
		tOff := measure(off, passes)
		tOn := measure(on, passes)
		overheadPct = 100 * (float64(tOn)/float64(tOff) - 1)
		if overheadPct > 50 {
			b.Fatalf("observability overhead %.1f%% on the full-pass hot loop; the enabled path must stay lock- and allocation-free", overheadPct)
		}
	}
	b.ReportMetric(overheadPct, "%overhead")
}

func benchHost(b *testing.B, vendor parbor.Vendor, seed uint64) *parbor.Host {
	b.Helper()
	cc := parbor.DefaultCouplingConfig()
	cc.VulnerableRate = 2e-3
	mod, err := parbor.NewModule(parbor.ModuleConfig{
		Name:     "bench",
		Vendor:   vendor,
		Chips:    1,
		Geometry: parbor.Geometry{Banks: 1, Rows: 256, Cols: 8192},
		Coupling: cc,
		Faults:   parbor.DefaultFaultsConfig(),
		Seed:     seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	host, err := parbor.NewHost(mod, 0)
	if err != nil {
		b.Fatal(err)
	}
	return host
}

func vendorByName(b *testing.B, name string) parbor.Vendor {
	b.Helper()
	switch name {
	case "A":
		return parbor.VendorA
	case "B":
		return parbor.VendorB
	case "C":
		return parbor.VendorC
	default:
		b.Fatalf("unknown vendor %q", name)
		return 0
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BenchmarkAblationPerBankRefresh compares all-bank refresh (DDR3
// REF, the paper's model) with per-bank refresh (LPDDR REFpb): REFpb
// narrows the baseline's refresh penalty and therefore DC-REF's
// headroom — the trend that makes content-based refresh most valuable
// on all-bank parts.
func BenchmarkAblationPerBankRefresh(b *testing.B) {
	run := func(perBank bool, policy parbor.RefreshKind) float64 {
		res, err := parbor.RunSim(parbor.SimConfig{
			Workload:       parbor.Workloads(1, 8, 5)[0],
			Policy:         policy,
			Density:        parbor.Density32Gbit,
			SimNs:          1e6,
			PerBankRefresh: perBank,
			Seed:           9,
		})
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, ipc := range res.IPC {
			sum += ipc
		}
		return sum
	}
	var gainAllBank, gainPerBank float64
	for i := 0; i < b.N; i++ {
		gainAllBank = run(false, parbor.RefreshDCREF)/run(false, parbor.RefreshUniform) - 1
		gainPerBank = run(true, parbor.RefreshDCREF)/run(true, parbor.RefreshUniform) - 1
		if gainAllBank <= 0 {
			b.Fatalf("DC-REF gain under all-bank refresh = %.3f, want positive", gainAllBank)
		}
	}
	b.ReportMetric(100*gainAllBank, "%gain-allbank")
	b.ReportMetric(100*gainPerBank, "%gain-perbank")
}

// BenchmarkPassHotLoop measures the steady-state write-wait-read pass
// over a fixed victim-row set — the hot path under the recursive
// test, the classifier, and the online scheduler. The host is warmed
// first (row metadata materialized, scratch grown), so the loop
// measures exactly what repeats: per-pass bookkeeping, the write and
// read sweeps, and the retention wait. ReportAllocs guards the
// zero-allocation contract (see TestPassZeroAllocsSteadyState for the
// hard budget).
func BenchmarkPassHotLoop(b *testing.B) {
	ctx := context.Background()
	for _, bench := range []struct {
		name        string
		parallelism int
	}{
		{"serial", 1},
		{"sharded", 0}, // 0 = GOMAXPROCS
	} {
		b.Run(bench.name, func(b *testing.B) {
			cc := parbor.DefaultCouplingConfig()
			cc.VulnerableRate = 2e-3
			mod, err := parbor.NewModule(parbor.ModuleConfig{
				Name:     "bench-pass",
				Vendor:   parbor.VendorA,
				Chips:    8,
				Geometry: parbor.Geometry{Banks: 1, Rows: 256, Cols: 8192},
				Coupling: cc,
				Faults:   parbor.DefaultFaultsConfig(),
				Seed:     42,
			})
			if err != nil {
				b.Fatal(err)
			}
			host, err := parbor.NewHostWithConfig(mod, parbor.HostConfig{WaitMs: 64, Parallelism: bench.parallelism})
			if err != nil {
				b.Fatal(err)
			}
			// 16 rows per chip, all of non-inverted polarity, written
			// all-zeros: the steady state of a quiet module, where a
			// pass finds nothing and should allocate nothing.
			words := host.Geometry().Words()
			var rows []parbor.Row
			data := make([][]uint64, 0, 8*16)
			for chip := 0; chip < host.Chips(); chip++ {
				for r := 0; r < 16; r++ {
					rows = append(rows, parbor.Row{Chip: chip, Bank: 0, Row: r * 4})
					data = append(data, make([]uint64, words))
				}
			}
			for warm := 0; warm < 3; warm++ {
				if _, err := host.Pass(ctx, rows, data, host.WaitMs()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := host.Pass(ctx, rows, data, host.WaitMs()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProbeHotLoop measures the steady-state probe pass: one
// probed cell in each of a fixed set of victim rows, the pass shape of
// the recursion, the victim classifier and the naive searches. It
// mirrors BenchmarkPassHotLoop's module, rows and data, probing a
// different column of each row, so the two compare directly; its
// allocs/op is gated at zero like the Pass loop's.
func BenchmarkProbeHotLoop(b *testing.B) {
	ctx := context.Background()
	for _, bench := range []struct {
		name        string
		parallelism int
	}{
		{"serial", 1},
		{"sharded", 0}, // 0 = GOMAXPROCS
	} {
		b.Run(bench.name, func(b *testing.B) {
			cc := parbor.DefaultCouplingConfig()
			cc.VulnerableRate = 2e-3
			mod, err := parbor.NewModule(parbor.ModuleConfig{
				Name:     "bench-probe",
				Vendor:   parbor.VendorA,
				Chips:    8,
				Geometry: parbor.Geometry{Banks: 1, Rows: 256, Cols: 8192},
				Coupling: cc,
				Faults:   parbor.DefaultFaultsConfig(),
				Seed:     42,
			})
			if err != nil {
				b.Fatal(err)
			}
			host, err := parbor.NewHostWithConfig(mod, parbor.HostConfig{WaitMs: 64, Parallelism: bench.parallelism})
			if err != nil {
				b.Fatal(err)
			}
			// The same quiet steady state as BenchmarkPassHotLoop: 16
			// non-inverted rows per chip written all-zeros.
			words := host.Geometry().Words()
			var cells []parbor.BitAddr
			data := make([][]uint64, 0, 8*16)
			for chip := 0; chip < host.Chips(); chip++ {
				for r := 0; r < 16; r++ {
					cells = append(cells, parbor.BitAddr{Chip: int16(chip), Bank: 0, Row: int32(r * 4), Col: int32(r * 509)})
					data = append(data, make([]uint64, words))
				}
			}
			for warm := 0; warm < 3; warm++ {
				if _, err := host.Probe(ctx, cells, data, host.WaitMs()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := host.Probe(ctx, cells, data, host.WaitMs()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFullPassVictimDense measures the full-module sweep on a
// victim-dense chip — VulnerableRate 0.05 puts ~400 victims in every
// row, the regime of end-of-life parts and accelerated-stress tests.
// The 0xaa checkerboard on vendor A (even neighbor distances) is a
// detection-negative pattern: coupling conditions never complete, so
// the sweep's job is to establish that cheaply — the dominant regime
// of real testing, where most passes over most rows find nothing.
// The scalar path still walks all ~400 victims per row bit by bit;
// the mask planes dispose of each word in a handful of word ops.
// This is the axis where word-wide evaluation pulls furthest ahead:
// scalar cost grows linearly with the victim count while the sweep
// cost is bounded per word, so the gap widens with density (see
// BENCH_9.json for the measured curve). Compare with
// `-tags parborscalar` for the scalar cost at this density.
func BenchmarkFullPassVictimDense(b *testing.B) {
	ctx := context.Background()
	cc := parbor.DefaultCouplingConfig()
	cc.VulnerableRate = 0.05
	mod, err := parbor.NewModule(parbor.ModuleConfig{
		Name:     "bench-dense",
		Vendor:   parbor.VendorA,
		Chips:    8,
		Geometry: parbor.Geometry{Banks: 1, Rows: 256, Cols: 8192},
		Coupling: cc,
		Faults:   parbor.DefaultFaultsConfig(),
		Seed:     42,
	})
	if err != nil {
		b.Fatal(err)
	}
	host, err := parbor.NewHostWithConfig(mod, parbor.HostConfig{WaitMs: 512, Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	row := make([]uint64, host.Geometry().Words())
	for i := range row {
		row[i] = 0xaaaaaaaaaaaaaaaa
	}
	src := func(parbor.Row, []uint64) []uint64 { return row }
	// One warm pass materializes every row's victim population and
	// mask planes, so the loop measures the steady-state sweep.
	if _, err := host.FullPass(ctx, src, host.WaitMs()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := host.FullPass(ctx, src, host.WaitMs()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullPassParallelism contrasts the serial test host with
// the chip-sharded host on an 8-chip module: the full-module
// write-wait-read sweep is the hot path of every detection
// experiment, and it scales with min(GOMAXPROCS, chips) workers.
func BenchmarkFullPassParallelism(b *testing.B) {
	ctx := context.Background()
	for _, bench := range []struct {
		name        string
		parallelism int
	}{
		{"serial", 1},
		{"sharded", 0}, // 0 = GOMAXPROCS
	} {
		b.Run(bench.name, func(b *testing.B) {
			cc := parbor.DefaultCouplingConfig()
			cc.VulnerableRate = 2e-3
			mod, err := parbor.NewModule(parbor.ModuleConfig{
				Name:     "bench-par",
				Vendor:   parbor.VendorA,
				Chips:    8,
				Geometry: parbor.Geometry{Banks: 1, Rows: 256, Cols: 8192},
				Coupling: cc,
				Faults:   parbor.DefaultFaultsConfig(),
				Seed:     42,
			})
			if err != nil {
				b.Fatal(err)
			}
			host, err := parbor.NewHostWithConfig(mod, parbor.HostConfig{WaitMs: 512, Parallelism: bench.parallelism})
			if err != nil {
				b.Fatal(err)
			}
			// One immutable checker row aliased across the whole
			// module — the path the pipeline takes for its uniform
			// patterns (see memctl.RowSource).
			row := make([]uint64, host.Geometry().Words())
			for i := range row {
				row[i] = 0xaaaaaaaaaaaaaaaa
			}
			src := func(parbor.Row, []uint64) []uint64 { return row }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := host.FullPass(ctx, src, host.WaitMs()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
