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
//	parbor -vendor A -online 6
//	parbor -vendor A -online 3 -checkpoint sweep.json
//	parbor -resume sweep.json -online 3
//	parbor -vendor A -timeout 30s
//
// With -report, the run emits a structured observability report
// (schema parbor/report/v1, see DESIGN.md): the configuration, each
// stage's wall time and DRAM-command delta, command totals, test-host
// timing histograms, and the derived headline figures.
//
// With -online N, the detected distance set feeds N online-test
// epochs on a fresh twin module and the failure-set checksum is
// printed; -checkpoint writes a parbor/checkpoint/v1 snapshot after
// those epochs, and -resume continues a snapshotted sweep (module
// configuration comes from the snapshot; detection is skipped). A
// checkpointed-then-resumed sweep is bit-identical to an
// uninterrupted one.
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
	"strings"
	"syscall"
	"time"

	"parbor"
	"parbor/internal/checkpoint"
	"parbor/internal/core"
	"parbor/internal/faultfs"
	"parbor/internal/memctl"
	"parbor/internal/obs"
	"parbor/internal/onlinetest"
	"parbor/internal/patterns"
	"parbor/internal/retention"
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
		online        = flag.Int("online", 0, "run this many online-test epochs with the detected distances")
		ckpt          = flag.String("checkpoint", "", "write a checkpoint snapshot to this path after the online epochs")
		resume        = flag.String("resume", "", "resume an online sweep from this checkpoint (skips detection)")
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
		online:        *online,
		checkpoint:    *ckpt,
		resume:        *resume,
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

func parseVendor(s string) (parbor.Vendor, error) {
	switch strings.ToLower(s) {
	case "a":
		return parbor.VendorA, nil
	case "b":
		return parbor.VendorB, nil
	case "c":
		return parbor.VendorC, nil
	case "linear":
		return parbor.VendorLinear, nil
	case "toy":
		return parbor.VendorToy, nil
	default:
		return 0, fmt.Errorf("unknown vendor %q (want A, B, C, linear or toy)", s)
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
	online        int
	checkpoint    string
	resume        string
}

func run(ctx context.Context, opts options) error {
	if opts.resume != "" {
		return runResume(ctx, opts)
	}
	vendorName, rows, chips, sample, seed := opts.vendorName, opts.rows, opts.chips, opts.sample, opts.seed
	vendor, err := parseVendor(vendorName)
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
	cc := parbor.DefaultCouplingConfig()
	cc.VulnerableRate = 2e-3
	mod, err := parbor.NewModule(parbor.ModuleConfig{
		Name:     vendorName + "1",
		Vendor:   vendor,
		Chips:    chips,
		Geometry: parbor.Geometry{Banks: 1, Rows: rows, Cols: cols},
		Coupling: cc,
		Faults:   parbor.DefaultFaultsConfig(),
		Seed:     seed,
		Recorder: rec,
	})
	if err != nil {
		return err
	}
	host, err := parbor.NewHostWithConfig(mod, parbor.HostConfig{Recorder: rec})
	if err != nil {
		return err
	}
	tester, err := parbor.NewTester(host, parbor.DetectConfig{SampleSize: sample, Seed: seed})
	if err != nil {
		return err
	}

	fmt.Printf("Module %s: vendor %s, %d chips x (%d rows x %d cols), seed %d\n\n",
		mod.Name(), mod.Vendor(), mod.Chips(), rows, cols, seed)

	if opts.showMapping {
		truth, err := parbor.NewMapping(vendor)
		if err != nil {
			return err
		}
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
		victims, _, _, err := tester.DiscoverVictims(ctx)
		if err != nil {
			stopClassify()
			return err
		}
		classified, tests, err := tester.ClassifyVictims(ctx, victims, nr.Distances)
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
		host2, err := memctl.NewHostWithConfig(mod, memctl.HostConfig{Recorder: rec})
		if err != nil {
			return err
		}
		profiler, err := retention.New(host2, retention.Config{MinMs: 64, MaxMs: 4096})
		if err != nil {
			return err
		}
		chunk := 128
		if vendor == parbor.VendorToy {
			chunk = 16
		}
		pats, err := patterns.NeighborAware(nr.Distances, chunk)
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
		mod2, err := parbor.NewModule(parbor.ModuleConfig{
			Name:     mod.Name(),
			Vendor:   vendor,
			Chips:    chips,
			Geometry: parbor.Geometry{Banks: 1, Rows: rows, Cols: cols},
			Coupling: cc,
			Faults:   parbor.DefaultFaultsConfig(),
			Seed:     seed,
			Recorder: rec,
		})
		if err != nil {
			return err
		}
		host2, err := parbor.NewHostWithConfig(mod2, parbor.HostConfig{Recorder: rec})
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
	if opts.online > 0 {
		stopOnline := col.StartStage("online")
		err := runOnline(ctx, opts, vendor, cols, rec, nr.Distances)
		stopOnline()
		if err != nil {
			return err
		}
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

// onlineConfig is the scheduler configuration both the fresh-start and
// resume paths use, so a resumed sweep matches an uninterrupted one.
func onlineConfig(vendor parbor.Vendor, distances []int) onlinetest.Config {
	chunk := 128
	if vendor == parbor.VendorToy {
		chunk = 16
	}
	return onlinetest.Config{Distances: distances, ChunkBits: chunk}
}

// runOnline runs the requested online-test epochs on a fresh twin
// module (same configuration and seed as the detection target, so the
// sweep starts from a known machine state) and optionally checkpoints
// the sweep afterwards.
func runOnline(ctx context.Context, opts options, vendor parbor.Vendor, cols int, rec obs.Recorder, distances []int) error {
	cc := parbor.DefaultCouplingConfig()
	cc.VulnerableRate = 2e-3
	mod, err := parbor.NewModule(parbor.ModuleConfig{
		Name:     opts.vendorName + "1",
		Vendor:   vendor,
		Chips:    opts.chips,
		Geometry: parbor.Geometry{Banks: 1, Rows: opts.rows, Cols: cols},
		Coupling: cc,
		Faults:   parbor.DefaultFaultsConfig(),
		Seed:     opts.seed,
		Recorder: rec,
	})
	if err != nil {
		return err
	}
	host, err := parbor.NewHostWithConfig(mod, parbor.HostConfig{Recorder: rec})
	if err != nil {
		return err
	}
	sched, err := onlinetest.New(host, onlineConfig(vendor, distances))
	if err != nil {
		return err
	}
	fmt.Printf("\nOnline test sweep (%d epochs, distances %v):\n", opts.online, distances)
	return onlineEpochs(ctx, opts, mod, opts.seed, sched)
}

// runResume continues a checkpointed sweep: the module is rebuilt from
// the snapshot's identity and seed (the command line's module flags
// are ignored), the saved clocks are applied, and the scheduler picks
// up exactly where the snapshot left it.
func runResume(ctx context.Context, opts options) error {
	if opts.online <= 0 {
		return fmt.Errorf("-resume requires -online N (how many more epochs to run)")
	}
	snap, err := checkpoint.ReadFile(faultfs.OS{}, opts.resume)
	if err != nil {
		return err
	}
	vendor, err := parseVendor(snap.Module.Vendor)
	if err != nil {
		return fmt.Errorf("checkpoint %s: %w", opts.resume, err)
	}
	var rec obs.Recorder
	cc := parbor.DefaultCouplingConfig()
	cc.VulnerableRate = 2e-3
	mod, err := parbor.NewModule(parbor.ModuleConfig{
		Name:     snap.Module.Name,
		Vendor:   vendor,
		Chips:    snap.Module.Chips,
		Geometry: parbor.Geometry{Banks: snap.Module.Banks, Rows: snap.Module.Rows, Cols: snap.Module.Cols},
		Coupling: cc,
		Faults:   parbor.DefaultFaultsConfig(),
		Seed:     snap.Seed,
		Recorder: rec,
	})
	if err != nil {
		return err
	}
	if err := snap.Apply(mod); err != nil {
		return err
	}
	host, err := parbor.NewHostWithConfig(mod, parbor.HostConfig{Recorder: rec})
	if err != nil {
		return err
	}
	sched, err := onlinetest.Resume(host, snap.Scheduler)
	if err != nil {
		return err
	}
	fmt.Printf("Resumed module %s (vendor %s, %d chips, seed %d) at %.1f%% sweep coverage\n",
		mod.Name(), mod.Vendor(), mod.Chips(), snap.Seed, 100*sched.Coverage())
	fmt.Printf("\nOnline test sweep (%d more epochs, distances %v):\n",
		opts.online, snap.Scheduler.Config.Distances)
	return onlineEpochs(ctx, opts, mod, snap.Seed, sched)
}

// onlineEpochs drives the shared epoch loop, prints the sweep summary
// with the failure-set checksum, and writes the checkpoint if one was
// requested.
func onlineEpochs(ctx context.Context, opts options, mod *parbor.Module, seed uint64, sched *onlinetest.Scheduler) error {
	for i := 0; i < opts.online; i++ {
		res, err := sched.RunEpoch(ctx)
		if err != nil {
			return fmt.Errorf("online epoch %d: %w", i+1, err)
		}
		line := fmt.Sprintf("  epoch %2d: %2d rows, %3d tests, %2d new failures",
			i+1, len(res.RowsTested), res.Tests, len(res.NewFailures))
		if res.Degraded {
			line += fmt.Sprintf(" [degraded: %d skipped, %d quarantined, %d unrestored]",
				len(res.SkippedRows), len(res.Quarantined), len(res.UnrestoredRows))
		}
		if res.SweepCompleted {
			line += " (sweep complete)"
		}
		fmt.Println(line)
	}
	fails := core.FailureSet(sched.Failures())
	fmt.Printf("Online sweep: coverage %.1f%%, %d rounds, %d tests, %d failures, checksum %s\n",
		100*sched.Coverage(), sched.Rounds(), sched.Tests(), len(fails), fails.Checksum())
	if q := sched.Quarantined(); len(q) > 0 {
		fmt.Printf("  quarantined chips: %v (%d retries, %d degraded epochs)\n",
			q, sched.Retries(), sched.DegradedEpochs())
	}
	if opts.checkpoint != "" {
		snap := checkpoint.Capture(mod, seed, sched.State())
		if err := snap.WriteFile(faultfs.OS{}, opts.checkpoint); err != nil {
			return err
		}
		fmt.Printf("Checkpoint written to %s\n", opts.checkpoint)
	}
	return nil
}
