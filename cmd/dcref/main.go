// Command dcref runs the DC-REF refresh study (paper, Section 8): it
// simulates multi-programmed workloads on a DDR3 system under the
// uniform baseline, RAIDR, and DC-REF refresh policies and reports
// weighted speedups and refresh counts.
//
// Usage:
//
//	dcref -workloads 8 -density 32 -simns 2e6
//	dcref -list-apps
//	dcref -workloads 8 -report out.json -cpuprofile cpu.pprof
//
// -timeout bounds the run, and SIGINT/SIGTERM cancel it
// cooperatively: remaining workload cells are not dispatched.
//
// With -report, the run emits a structured observability report
// (schema parbor/report/v1, see DESIGN.md) carrying the run
// configuration, the study's wall time, and the headline summary
// figures per density. The refresh study runs on the command-level
// DDR3 simulator, not the DRAM test substrate, so the report's
// DRAM-command section is empty.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"parbor"
	"parbor/internal/exp"
	"parbor/internal/obs"
	"parbor/internal/sim"
)

// parseDensities maps the -density flag to the evaluated densities.
func parseDensities(gbit int) ([]sim.Density, error) {
	switch gbit {
	case 0:
		return []sim.Density{sim.Density16Gbit, sim.Density32Gbit}, nil
	case 16:
		return []sim.Density{sim.Density16Gbit}, nil
	case 32:
		return []sim.Density{sim.Density32Gbit}, nil
	default:
		return nil, fmt.Errorf("unsupported density %d (want 16 or 32)", gbit)
	}
}

func main() {
	var (
		workloads  = flag.Int("workloads", 8, "number of 8-core workload mixes")
		cores      = flag.Int("cores", 8, "cores per mix")
		density    = flag.Int("density", 0, "chip density in Gbit: 16, 32, or 0 for both")
		simNs      = flag.Float64("simns", 2e6, "simulated nanoseconds per run")
		seed       = flag.Uint64("seed", 42, "workload and simulation seed")
		listApps   = flag.Bool("list-apps", false, "print the application profiles and exit")
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

	if *listApps {
		fmt.Printf("%-12s%8s%10s%10s%12s%12s\n", "App", "MPKI", "RowLoc", "WriteFr", "Rows", "MatchProb")
		for _, a := range parbor.SPECApps() {
			fmt.Printf("%-12s%8.1f%10.2f%10.2f%12d%12.2f\n",
				a.Name, a.MPKI, a.RowLocality, a.WriteFrac, a.FootprintRows, a.ContentMatchProb)
		}
		return
	}

	densities, err := parseDensities(*density)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcref: %v\n", err)
		os.Exit(1)
	}

	stopProfiles, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcref: %v\n", err)
		os.Exit(1)
	}
	var col *obs.Collector
	if *report != "" {
		col = obs.NewCollector()
		col.SetConfig("workloads", *workloads)
		col.SetConfig("cores", *cores)
		col.SetConfig("density", *density)
		col.SetConfig("simns", *simNs)
		col.SetConfig("seed", *seed)
	}

	stopStudy := col.StartStage("fig16")
	rows, summaries, err := exp.Fig16(ctx, exp.Fig16Options{
		Workloads: *workloads,
		Cores:     *cores,
		SimNs:     *simNs,
		Densities: densities,
		Seed:      *seed,
	})
	stopStudy()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcref: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(exp.Table2())
	fmt.Println(exp.FormatFig16(rows, summaries))

	if col != nil {
		for _, s := range summaries {
			d := s.Density.String()
			col.SetFigure("dcref_vs_base_pct_"+d, s.DCREFvsBase)
			col.SetFigure("dcref_vs_raidr_pct_"+d, s.DCREFvsRAIDR)
			col.SetFigure("refresh_reduction_pct_"+d, s.RefReductionVsBase)
		}
		rep := col.Snapshot("dcref")
		if err := rep.WriteFile(*report); err != nil {
			fmt.Fprintf(os.Stderr, "dcref: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("Observability report written to %s\n", *report)
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "dcref: %v\n", err)
		os.Exit(1)
	}
}
