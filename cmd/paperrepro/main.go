// Command paperrepro regenerates every table and figure of the
// PARBOR paper's evaluation against the simulated DRAM substrate.
//
// Usage:
//
//	paperrepro -exp all
//	paperrepro -exp table1
//	paperrepro -exp fig12 -rows 512 -modules 6
//	paperrepro -exp fig16 -workloads 32 -simns 2e6
//	paperrepro -exp table1 -report out.json -memprofile mem.pprof
//
// Experiments: table1, fig11, fig12, fig13, fig14, fig15, table2,
// fig16, appendix, retention, all.
//
// -timeout bounds the whole run, and SIGINT/SIGTERM cancel it
// cooperatively; a cancelled run exits with an error instead of
// printing partial tables.
//
// With -report, the run emits a structured observability report
// (schema parbor/report/v1, see DESIGN.md) with one stage per
// experiment: its wall time, the DRAM commands the substrate issued
// while it ran, test-host pass histograms, and headline figures.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"parbor/internal/exp"
	"parbor/internal/obs"
)

func main() {
	var (
		which      = flag.String("exp", "all", "experiment to run: table1|fig11|fig12|fig13|fig14|fig15|table2|fig16|appendix|retention|all")
		rows       = flag.Int("rows", 512, "simulated rows per chip (detection experiments)")
		modules    = flag.Int("modules", 6, "modules per vendor (fig12)")
		seed       = flag.Uint64("seed", 42, "experiment seed")
		workloads  = flag.Int("workloads", 32, "workload mixes (fig16)")
		simNs      = flag.Float64("simns", 2e6, "simulated nanoseconds per fig16 run")
		report     = flag.String("report", "", "write a JSON observability report to this path")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this path")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this path")
		timeout    = flag.Duration("timeout", 0, "abort the run after this long (0 = no deadline)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	stopProfiles, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperrepro: %v\n", err)
		os.Exit(1)
	}
	var col *obs.Collector
	o := exp.Options{RowsPerChip: *rows, ModulesPerVendor: *modules, Seed: *seed}
	if *report != "" {
		col = obs.NewCollector()
		o.Recorder = col
		col.SetConfig("exp", *which)
		col.SetConfig("rows", *rows)
		col.SetConfig("modules", *modules)
		col.SetConfig("seed", *seed)
	}
	err = run(ctx, *which, o, exp.Fig16Options{Workloads: *workloads, SimNs: *simNs, Seed: *seed}, col)
	if err == nil && col != nil {
		rep := col.Snapshot("paperrepro")
		if rerr := rep.Reconcile(); rerr != nil {
			err = fmt.Errorf("report does not reconcile: %w", rerr)
		} else if werr := rep.WriteFile(*report); werr != nil {
			err = werr
		} else {
			fmt.Printf("Observability report written to %s\n", *report)
		}
	}
	if perr := stopProfiles(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperrepro: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, which string, o exp.Options, fo exp.Fig16Options, col *obs.Collector) error {
	all := which == "all"
	ran := false
	// stage wraps one experiment in a collector stage so the report
	// attributes wall time and DRAM commands per figure.
	stage := func(name string, fn func() error) error {
		stop := col.StartStage(name)
		defer stop()
		return fn()
	}

	if all || which == "table1" {
		ran = true
		if err := stage("table1", func() error {
			rows, err := exp.Table1(ctx, o)
			if err != nil {
				return err
			}
			for _, r := range rows {
				col.SetFigure("table1_tests_"+r.Vendor, float64(r.Total))
			}
			fmt.Println(exp.FormatTable1(rows))
			return nil
		}); err != nil {
			return err
		}
	}
	if all || which == "fig11" {
		ran = true
		if err := stage("fig11", func() error {
			rows, err := exp.Fig11(ctx, o)
			if err != nil {
				return err
			}
			fmt.Println(exp.FormatFig11(rows))
			return nil
		}); err != nil {
			return err
		}
	}
	if all || which == "fig12" {
		ran = true
		if err := stage("fig12", func() error {
			rows, err := exp.Fig12(ctx, o)
			if err != nil {
				return err
			}
			col.SetFigure("fig12_mean_pct_increase", exp.MeanPctIncrease(rows))
			fmt.Println(exp.FormatFig12(rows))
			return nil
		}); err != nil {
			return err
		}
	}
	if all || which == "fig13" {
		ran = true
		if err := stage("fig13", func() error {
			rows, err := exp.Fig13(ctx, o)
			if err != nil {
				return err
			}
			fmt.Println(exp.FormatFig13(rows))
			return nil
		}); err != nil {
			return err
		}
	}
	if all || which == "fig14" {
		ran = true
		if err := stage("fig14", func() error {
			rows, err := exp.Fig14(ctx, o)
			if err != nil {
				return err
			}
			fmt.Println(exp.FormatFig14(rows))
			return nil
		}); err != nil {
			return err
		}
	}
	if all || which == "fig15" {
		ran = true
		if err := stage("fig15", func() error {
			rows, err := exp.Fig15(ctx, o, nil)
			if err != nil {
				return err
			}
			fmt.Println(exp.FormatFig15(rows))
			return nil
		}); err != nil {
			return err
		}
	}
	if all || which == "table2" {
		ran = true
		fmt.Println(exp.Table2())
	}
	if all || which == "fig16" {
		ran = true
		if err := stage("fig16", func() error {
			rows, summaries, err := exp.Fig16(ctx, fo)
			if err != nil {
				return err
			}
			for _, s := range summaries {
				col.SetFigure("fig16_dcref_vs_base_pct_"+s.Density.String(), s.DCREFvsBase)
			}
			fmt.Println(exp.FormatFig16(rows, summaries))
			return nil
		}); err != nil {
			return err
		}
	}
	if all || which == "appendix" {
		ran = true
		fmt.Println(exp.FormatAppendix(exp.Appendix()))
	}
	if all || which == "retention" {
		ran = true
		if err := stage("retention", func() error {
			// Retention sweeps dozens of full passes per module; a
			// smaller module keeps it in the same time envelope as
			// the figures.
			ro := o
			if ro.RowsPerChip > 128 {
				ro.RowsPerChip = 128
			}
			rows, err := exp.Retention(ctx, ro)
			if err != nil {
				return err
			}
			fmt.Println(exp.FormatRetention(rows))
			return nil
		}); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", which)
	}
	return nil
}
