// Command parbor runs the PARBOR detection pipeline against a
// simulated DRAM module and reports the detected neighbor locations,
// the test budget, the uncovered data-dependent failures, and the
// wall-clock such a run would take on real hardware.
//
// Usage:
//
//	parbor -vendor A -rows 512 -chips 8 -seed 42
//	parbor -vendor C -sample 5000 -compare-random
//	parbor -vendor B -classify -show-mapping
//	parbor -vendor A -profile-retention
//	parbor -vendor A -report out.json -cpuprofile cpu.pprof
//	parbor -vendor A -timeout 30s
//
// With -report, the run emits a structured observability report
// (schema parbor/report/v1, see DESIGN.md): the configuration, each
// stage's wall time and DRAM-command delta, command totals, test-host
// timing histograms, and the derived headline figures.
//
// Online testing with the detected distances, checkpointed and
// resumable, is the fleet daemon's job (cmd/parbord): a module enrolled
// without distances gets them from this same detection.
//
// -timeout bounds the whole run, and SIGINT/SIGTERM cancel it
// cooperatively: in-flight passes stop at the next row-stride check.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"parbor"
	"parbor/internal/core"
	"parbor/internal/obs"
	"parbor/internal/patterns"
	"parbor/internal/retention"
	"parbor/internal/scramble"
)

func main() {
	var (
		vendorFlag    = flag.String("vendor", "A", "vendor profile: A|B|C|linear|toy")
		rows          = flag.Int("rows", 512, "simulated rows per chip")
		chips         = flag.Int("chips", 8, "chips per module")
		sample        = flag.Int("sample", 0, "victim sample cap (0 = default 10000)")
		seed          = flag.Uint64("seed", 42, "module process-variation seed")
		compareRandom = flag.Bool("compare-random", false, "also run the equal-budget random-pattern baseline")
		classify      = flag.Bool("classify", false, "classify the victim sample by coupling class")
		extended      = flag.Bool("extended", false, "detect second-order neighbors from tail-gated victims (implies -classify)")
		profileRet    = flag.Bool("profile-retention", false, "profile per-row retention with the detected patterns")
		showMapping   = flag.Bool("show-mapping", false, "print the ground-truth mapping segments (simulation only)")
		report        = flag.String("report", "", "write a JSON observability report to this path")
		cpuprofile    = flag.String("cpuprofile", "", "write a pprof CPU profile to this path")
		memprofile    = flag.String("memprofile", "", "write a pprof heap profile to this path")
		timeout       = flag.Duration("timeout", 0, "abort the run after this long (0 = no deadline)")
	)
	flag.Parse()

	opts := options{
		vendorName:    *vendorFlag,
		rows:          *rows,
		chips:         *chips,
		sample:        *sample,
		seed:          *seed,
		compareRandom: *compareRandom,
		classify:      *classify || *extended,
		extended:      *extended,
		profileRet:    *profileRet,
		showMapping:   *showMapping,
		report:        *report,
		cpuprofile:    *cpuprofile,
		memprofile:    *memprofile,
		timeout:       *timeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if opts.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.timeout)
		defer cancel()
	}
	if err := run(ctx, opts); err != nil {
		fmt.Fprintf(os.Stderr, "parbor: %v\n", err)
		os.Exit(1)
	}
}

type options struct {
	vendorName    string
	rows, chips   int
	sample        int
	seed          uint64
	compareRandom bool
	classify      bool
	extended      bool
	profileRet    bool
	showMapping   bool
	report        string
	cpuprofile    string
	memprofile    string
	timeout       time.Duration
}

func run(ctx context.Context, opts options) error {
	vendorName, rows, chips, sample, seed := opts.vendorName, opts.rows, opts.chips, opts.sample, opts.seed
	vendor, err := scramble.ParseVendor(vendorName)
	if err != nil {
		return err
	}
	stopProfiles, err := obs.StartProfiles(opts.cpuprofile, opts.memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil {
			fmt.Fprintf(os.Stderr, "parbor: %v\n", perr)
		}
	}()
	// The collector stays a nil interface unless a report was
	// requested, so the default run pays only nil checks.
	var (
		col *obs.Collector
		rec obs.Recorder
	)
	if opts.report != "" {
		col = obs.NewCollector()
		rec = col
		col.SetConfig("vendor", vendorName)
		col.SetConfig("rows", rows)
		col.SetConfig("chips", chips)
		col.SetConfig("sample", sample)
		col.SetConfig("seed", seed)
	}
	cols := 8192
	if vendor == parbor.VendorToy {
		cols = 1024
	}
	geom := parbor.Geometry{Banks: 1, Rows: rows, Cols: cols}
	mod, host, err := newModuleHost(vendorName+"1", vendor, chips, geom, seed, rec)
	if err != nil {
		return err
	}
	tester, err := parbor.NewTester(host, parbor.DetectConfig{SampleSize: sample, Seed: seed})
	if err != nil {
		return err
	}

	fmt.Printf("Module %s: vendor %s, %d chips x (%d rows x %d cols), seed %d\n\n",
		mod.Name(), mod.Vendor(), mod.Chips(), rows, cols, seed)

	// The mapping's chunk size (128 bits, 16 on toy) also sizes the
	// neighbor-aware patterns of the retention profile.
	truth, err := parbor.NewMapping(vendor)
	if err != nil {
		return err
	}
	if opts.showMapping {
		fmt.Println("Ground-truth mapping (simulation only; PARBOR never sees this):")
		for i, seg := range truth.Segments() {
			fmt.Printf("  segment %2d: %v\n", i, seg)
		}
		fmt.Printf("  distances: %v\n\n", truth.Distances())
	}

	stopDetect := col.StartStage("detect")
	report, err := tester.Run(ctx)
	stopDetect()
	if err != nil {
		return err
	}
	nr := report.Neighbor
	fmt.Printf("Victim sample: %d cells (discovery: %d tests)\n", nr.SampleSize, nr.DiscoveryTests)
	fmt.Printf("Recursive neighbor detection: %d tests\n", nr.RecursionTests)
	for i, lvl := range nr.Levels {
		fmt.Printf("  L%d (region %4d bits): %2d tests, distances %v\n",
			i+1, lvl.RegionSize, lvl.Tests, lvl.Distances)
	}
	fmt.Printf("Neighbor distances: %v\n\n", nr.Distances)
	fmt.Printf("Full-chip neighbor-aware test: %d tests, %d failures\n",
		report.FullChipTests, len(report.FullChipFailures))
	fmt.Printf("Total budget: %d tests; all observed failures: %d\n",
		report.TotalTests(), len(report.AllFailures))

	// What this run would cost on real hardware (Appendix model).
	ttm := parbor.NewTestTimeModel()
	paperGeom := parbor.Geometry{Banks: 8, Rows: 32768, Cols: 8192}
	fmt.Printf("Wall-clock on a real 2GB module: %v\n",
		ttm.ParborTime(paperGeom, 8, report.TotalTests()).Round(1e7))

	if opts.classify {
		stopClassify := col.StartStage("classify")
		classified, tests, err := tester.ClassifyVictims(ctx, nr.Victims, nr.Distances)
		stopClassify()
		if err != nil {
			return err
		}
		counts := core.ClassCounts(classified)
		fmt.Printf("\nVictim classification (%d probe tests over %d victims):\n", tests, len(classified))
		for _, kind := range []core.CouplingKind{
			core.KindSingle, core.KindPair, core.KindContentIndependent, core.KindUnknown,
		} {
			fmt.Printf("  %-22s %d\n", kind.String()+":", counts[kind])
		}

		if opts.extended {
			tail := core.TailGated(classified)
			if len(tail) == 0 {
				fmt.Println("\nNo tail-gated victims: no second-order detection possible.")
			} else {
				stopExt := col.StartStage("extended")
				ext, err := tester.DetectExtendedNeighbors(ctx, tail, nr.Distances)
				stopExt()
				if err != nil {
					return err
				}
				fmt.Printf("\nSecond-order neighbor detection (%d victims, %d tests):\n",
					ext.Victims, ext.Tests)
				fmt.Printf("  second-order distances: %v\n", ext.Distances)
			}
		}
	}

	if opts.profileRet {
		// A fresh twin module, as for the random baseline: the one
		// detection tested has advanced its noise streams, so its
		// profile would depend on which stages ran before it.
		_, host2, err := newModuleHost(mod.Name(), vendor, chips, geom, seed, rec)
		if err != nil {
			return err
		}
		profiler, err := retention.New(host2, retention.Config{MinMs: 64, MaxMs: 4096})
		if err != nil {
			return err
		}
		pats, err := patterns.NeighborAware(nr.Distances, truth.ChunkBits())
		if err != nil {
			return err
		}
		stopRet := col.StartStage("retention-profile")
		profile, err := profiler.ProfileModule(ctx, pats)
		stopRet()
		if err != nil {
			return err
		}
		fmt.Printf("\nRetention profile (%d tests, neighbor-aware stress):\n", profile.Tests)
		for _, w := range profile.Waits {
			if n := profile.Histogram()[w]; n > 0 {
				fmt.Printf("  first failure at %6.0f ms: %5d rows\n", w, n)
			}
		}
		fmt.Printf("  never failed:             %5d rows\n", profile.Histogram()[retention.NoFailure])
		fmt.Printf("  weak-row fraction (<256 ms): %.1f%%\n", 100*profile.WeakRowFraction(256))
	}

	if opts.compareRandom {
		// Fresh identical module so the baseline sees the same chips.
		_, host2, err := newModuleHost(mod.Name(), vendor, chips, geom, seed, rec)
		if err != nil {
			return err
		}
		tester2, err := parbor.NewTester(host2, parbor.DetectConfig{Seed: seed})
		if err != nil {
			return err
		}
		stopRnd := col.StartStage("random-baseline")
		random, err := tester2.RandomPatternTest(ctx, report.TotalTests())
		stopRnd()
		if err != nil {
			return err
		}
		both := report.AllFailures.Intersect(random)
		fmt.Printf("\nEqual-budget random baseline: %d failures\n", len(random))
		fmt.Printf("  found only by PARBOR: %d\n", len(report.AllFailures)-both)
		fmt.Printf("  found only by random: %d\n", len(random)-both)
		fmt.Printf("  found by both:        %d\n", both)
	}

	if col != nil {
		col.SetFigure("discovery_tests", float64(nr.DiscoveryTests))
		col.SetFigure("recursion_tests", float64(nr.RecursionTests))
		col.SetFigure("fullchip_tests", float64(report.FullChipTests))
		col.SetFigure("total_tests", float64(report.TotalTests()))
		col.SetFigure("all_failures", float64(len(report.AllFailures)))
		col.SetFigure("sample_size", float64(nr.SampleSize))
		col.SetFigure("hw_wallclock_ms", float64(ttm.ParborTime(paperGeom, 8, report.TotalTests()))/1e6)
		rep := col.Snapshot("parbor")
		if err := rep.Reconcile(); err != nil {
			return fmt.Errorf("report does not reconcile: %w", err)
		}
		if err := rep.WriteFile(opts.report); err != nil {
			return err
		}
		fmt.Printf("\nObservability report written to %s\n", opts.report)
	}
	return nil
}

// newModuleHost builds the simulated module every mode of the command
// runs on — the default coupling model at a 2e-3 vulnerable-cell rate,
// the default noise model — and a host on it.
func newModuleHost(name string, vendor parbor.Vendor, chips int, geom parbor.Geometry, seed uint64, rec obs.Recorder) (*parbor.Module, *parbor.Host, error) {
	cc := parbor.DefaultCouplingConfig()
	cc.VulnerableRate = 2e-3
	mod, err := parbor.NewModule(parbor.ModuleConfig{
		Name:     name,
		Vendor:   vendor,
		Chips:    chips,
		Geometry: geom,
		Coupling: cc,
		Faults:   parbor.DefaultFaultsConfig(),
		Seed:     seed,
		Recorder: rec,
	})
	if err != nil {
		return nil, nil, err
	}
	host, err := parbor.NewHostWithConfig(mod, parbor.HostConfig{Recorder: rec})
	if err != nil {
		return nil, nil, err
	}
	return mod, host, nil
}
