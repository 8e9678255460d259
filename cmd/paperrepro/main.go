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
// while it ran, test-host pass histograms, and headline figures. The
// fig16 refresh study runs on the command-level DDR3 simulator, not
// the DRAM test substrate, so its stage issues no DRAM commands.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"

	"parbor/internal/exp"
	"parbor/internal/obs"
)

func main() {
	var (
		which      = flag.String("exp", "all", "experiment to run: "+names()+"|all")
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
		col.SetConfig("workloads", *workloads)
		col.SetConfig("simns", *simNs)
	}
	err = run(ctx, os.Stdout, *which, o, exp.Fig16Options{Workloads: *workloads, SimNs: *simNs, Seed: *seed}, col)
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

// artifact is one table or figure of the paper's evaluation: render
// returns its printed text and the headline figures it reports.
type artifact struct {
	name   string
	render func(ctx context.Context, o exp.Options, fo exp.Fig16Options) (string, map[string]float64, error)
}

// artifacts lists the evaluation in the order -exp all prints it.
var artifacts = []artifact{
	{"table1", func(ctx context.Context, o exp.Options, _ exp.Fig16Options) (string, map[string]float64, error) {
		rows, err := exp.Table1(ctx, o)
		if err != nil {
			return "", nil, err
		}
		figs := make(map[string]float64)
		for _, r := range rows {
			figs["table1_tests_"+r.Vendor] = float64(r.Total)
		}
		return exp.FormatTable1(rows), figs, nil
	}},
	{"fig11", func(ctx context.Context, o exp.Options, _ exp.Fig16Options) (string, map[string]float64, error) {
		rows, err := exp.Fig11(ctx, o)
		return exp.FormatFig11(rows), nil, err
	}},
	{"fig12", func(ctx context.Context, o exp.Options, _ exp.Fig16Options) (string, map[string]float64, error) {
		rows, err := exp.Fig12(ctx, o)
		if err != nil {
			return "", nil, err
		}
		return exp.FormatFig12(rows), map[string]float64{"fig12_mean_pct_increase": exp.MeanPctIncrease(rows)}, nil
	}},
	{"fig13", func(ctx context.Context, o exp.Options, _ exp.Fig16Options) (string, map[string]float64, error) {
		rows, err := exp.Fig13(ctx, o)
		return exp.FormatFig13(rows), nil, err
	}},
	{"fig14", func(ctx context.Context, o exp.Options, _ exp.Fig16Options) (string, map[string]float64, error) {
		rows, err := exp.Fig14(ctx, o)
		return exp.FormatFig14(rows), nil, err
	}},
	{"fig15", func(ctx context.Context, o exp.Options, _ exp.Fig16Options) (string, map[string]float64, error) {
		rows, err := exp.Fig15(ctx, o, nil)
		return exp.FormatFig15(rows), nil, err
	}},
	{"table2", func(context.Context, exp.Options, exp.Fig16Options) (string, map[string]float64, error) {
		return exp.Table2(), nil, nil
	}},
	{"fig16", func(ctx context.Context, _ exp.Options, fo exp.Fig16Options) (string, map[string]float64, error) {
		rows, summaries, err := exp.Fig16(ctx, fo)
		if err != nil {
			return "", nil, err
		}
		figs := make(map[string]float64)
		for _, s := range summaries {
			d := s.Density.String()
			figs["fig16_dcref_vs_base_pct_"+d] = s.DCREFvsBase
			figs["fig16_dcref_vs_raidr_pct_"+d] = s.DCREFvsRAIDR
			figs["fig16_refresh_reduction_pct_"+d] = s.RefReductionVsBase
		}
		return exp.FormatFig16(rows, summaries), figs, nil
	}},
	{"appendix", func(context.Context, exp.Options, exp.Fig16Options) (string, map[string]float64, error) {
		return exp.FormatAppendix(exp.Appendix()), nil, nil
	}},
	{"retention", func(ctx context.Context, o exp.Options, _ exp.Fig16Options) (string, map[string]float64, error) {
		// Retention sweeps dozens of full passes per module; a smaller
		// module keeps it in the same time envelope as the figures.
		o.RowsPerChip = min(o.RowsPerChip, 128)
		rows, err := exp.Retention(ctx, o)
		return exp.FormatRetention(rows), nil, err
	}},
}

// names joins the artifact names for the -exp usage line.
func names() string {
	var ns []string
	for _, a := range artifacts {
		ns = append(ns, a.name)
	}
	return strings.Join(ns, "|")
}

// run prints the named artifact, or every artifact for "all", to w.
// Each runs in its own collector stage, so the report attributes wall
// time and DRAM commands per artifact.
func run(ctx context.Context, w io.Writer, which string, o exp.Options, fo exp.Fig16Options, col *obs.Collector) error {
	todo := artifacts
	if which != "all" {
		i := slices.IndexFunc(artifacts, func(a artifact) bool { return a.name == which })
		if i < 0 {
			return fmt.Errorf("unknown experiment %q", which)
		}
		todo = artifacts[i : i+1]
	}
	for _, a := range todo {
		stop := col.StartStage(a.name)
		text, figs, err := a.render(ctx, o, fo)
		stop()
		if err != nil {
			return err
		}
		for name, v := range figs {
			col.SetFigure(name, v)
		}
		fmt.Fprintln(w, text)
	}
	return nil
}
