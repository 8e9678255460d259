package exp

import (
	"context"
	"fmt"
	"strings"

	"parbor/internal/metrics"
	"parbor/internal/par"
	"parbor/internal/refresh"
	"parbor/internal/sim"
	"parbor/internal/trace"
)

// Fig16Options scales the DC-REF experiment.
type Fig16Options struct {
	// Workloads is the number of multi-programmed mixes (paper: 32).
	Workloads int
	// Cores per mix (paper: 8).
	Cores int
	// SimNs is the simulated window per run.
	SimNs float64
	// Densities to evaluate (default 16 and 32 Gbit).
	Densities []sim.Density
	// Seed fixes workload assignment and simulation draws.
	Seed uint64
}

func (o Fig16Options) withDefaults() Fig16Options {
	if o.Workloads == 0 {
		o.Workloads = 32
	}
	if o.Cores == 0 {
		o.Cores = 8
	}
	if o.SimNs == 0 {
		o.SimNs = 2e6
	}
	if len(o.Densities) == 0 {
		o.Densities = []sim.Density{sim.Density16Gbit, sim.Density32Gbit}
	}
	return o
}

// Fig16Row is one workload's weighted speedups under each policy.
type Fig16Row struct {
	Workload int
	Density  sim.Density
	// WS maps each policy to the workload's weighted speedup.
	WSBase  float64
	WSRAIDR float64
	WSDCREF float64
	// Refreshes per policy.
	RefBase  int64
	RefRAIDR int64
	RefDCREF int64
	// FastRowFrac of DC-REF at the end of the run.
	DCREFFastFrac float64
	// DRAM energy per instruction per policy (nanojoules/instruction):
	// the efficiency metric — absolute energy is misleading when the
	// faster policy also retires more work.
	EPIBase  float64
	EPIDCREF float64
}

// Fig16Summary aggregates one density's results.
type Fig16Summary struct {
	Density sim.Density
	// Percentage weighted-speedup improvements.
	DCREFvsBase  float64
	RAIDRvsBase  float64
	DCREFvsRAIDR float64
	// Percentage refresh reductions.
	RefReductionVsBase  float64
	RefReductionVsRAIDR float64
	// Mean DC-REF fast-row fraction (paper: 2.7%).
	DCREFFastFrac float64
	// Percentage DRAM energy-per-instruction saving of DC-REF over
	// the baseline.
	EnergySaving float64
}

// Fig16 reproduces Figure 16: DC-REF vs RAIDR vs the uniform 64 ms
// baseline across multi-programmed workloads and chip densities. A
// done ctx stops the run between simulator runs (in-flight workload
// cells finish).
func Fig16(ctx context.Context, o Fig16Options) ([]Fig16Row, []Fig16Summary, error) {
	o = o.withDefaults()
	mixes := trace.Workloads(o.Workloads, o.Cores, o.Seed)

	// IPC when running alone on the baseline system, per app and
	// density — the weighted-speedup denominator.
	type aloneKey struct {
		app     string
		density sim.Density
	}
	alone := make(map[aloneKey]float64)
	aloneIPC := func(app trace.App, d sim.Density) (float64, error) {
		key := aloneKey{app: app.Name, density: d}
		if ipc, ok := alone[key]; ok {
			return ipc, nil
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		res, err := sim.Run(sim.Config{
			Workload: []trace.App{app},
			Policy:   refresh.Uniform,
			Density:  d,
			SimNs:    o.SimNs,
			Seed:     o.Seed,
		})
		if err != nil {
			return 0, err
		}
		alone[key] = res.IPC[0]
		return res.IPC[0], nil
	}

	// Resolve the alone-IPC cache serially (few distinct apps), then
	// measure the workload grid in parallel.
	for _, d := range o.Densities {
		for _, mix := range mixes {
			for _, app := range mix {
				if _, err := aloneIPC(app, d); err != nil {
					return nil, nil, fmt.Errorf("exp: figure 16, alone run %s/%v: %w", app.Name, d, err)
				}
			}
		}
	}
	type cell struct {
		density sim.Density
		mix     int
	}
	var grid []cell
	for _, d := range o.Densities {
		for w := range mixes {
			grid = append(grid, cell{density: d, mix: w})
		}
	}
	rows := make([]Fig16Row, len(grid))
	err := par.Map(ctx, len(grid), 0, func(i int) error {
		d, w := grid[i].density, grid[i].mix
		mix := mixes[w]
		aloneIPCs := make([]float64, len(mix))
		for c, app := range mix {
			aloneIPCs[c] = alone[aloneKey{app: app.Name, density: d}]
		}
		row := Fig16Row{Workload: w, Density: d}
		for _, k := range refresh.Kinds() {
			res, err := sim.Run(sim.Config{
				Workload: mix,
				Policy:   k,
				Density:  d,
				SimNs:    o.SimNs,
				Seed:     o.Seed + uint64(w),
			})
			if err != nil {
				return fmt.Errorf("exp: figure 16, workload %d, %v: %w", w, k, err)
			}
			ws, err := metrics.WeightedSpeedup(res.IPC, aloneIPCs)
			if err != nil {
				return err
			}
			switch k {
			case refresh.Uniform:
				row.WSBase, row.RefBase = ws, res.Refreshes
				row.EPIBase = res.Energy.Total() / float64(res.Instructions)
			case refresh.RAIDR:
				row.WSRAIDR, row.RefRAIDR = ws, res.Refreshes
			case refresh.DCREF:
				row.WSDCREF, row.RefDCREF = ws, res.Refreshes
				row.DCREFFastFrac = res.FastRowFrac
				row.EPIDCREF = res.Energy.Total() / float64(res.Instructions)
			}
		}
		rows[i] = row
		return nil
	}, nil)
	if err != nil {
		return nil, nil, err
	}
	return rows, summarize(rows), nil
}

// summarize aggregates Fig16 rows per density.
func summarize(rows []Fig16Row) []Fig16Summary {
	byDensity := map[sim.Density][]Fig16Row{}
	var order []sim.Density
	for _, r := range rows {
		if _, ok := byDensity[r.Density]; !ok {
			order = append(order, r.Density)
		}
		byDensity[r.Density] = append(byDensity[r.Density], r)
	}
	var out []Fig16Summary
	for _, d := range order {
		rs := byDensity[d]
		var dcrefVsBase, raidrVsBase, dcrefVsRAIDR, fast, energy []float64
		var refBase, refRAIDR, refDCREF int64
		for _, r := range rs {
			dcrefVsBase = append(dcrefVsBase, r.WSDCREF/r.WSBase-1)
			raidrVsBase = append(raidrVsBase, r.WSRAIDR/r.WSBase-1)
			dcrefVsRAIDR = append(dcrefVsRAIDR, r.WSDCREF/r.WSRAIDR-1)
			fast = append(fast, r.DCREFFastFrac)
			if r.EPIBase > 0 {
				energy = append(energy, 1-r.EPIDCREF/r.EPIBase)
			}
			refBase += r.RefBase
			refRAIDR += r.RefRAIDR
			refDCREF += r.RefDCREF
		}
		out = append(out, Fig16Summary{
			Density:             d,
			DCREFvsBase:         100 * metrics.Mean(dcrefVsBase),
			RAIDRvsBase:         100 * metrics.Mean(raidrVsBase),
			DCREFvsRAIDR:        100 * metrics.Mean(dcrefVsRAIDR),
			RefReductionVsBase:  100 * (1 - float64(refDCREF)/float64(refBase)),
			RefReductionVsRAIDR: 100 * (1 - float64(refDCREF)/float64(refRAIDR)),
			DCREFFastFrac:       100 * metrics.Mean(fast),
			EnergySaving:        100 * metrics.Mean(energy),
		})
	}
	return out
}

// FormatFig16 renders Figure 16 per-workload rows plus the summary.
func FormatFig16(rows []Fig16Row, summaries []Fig16Summary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 16: Performance of DC-REF vs. RAIDR (weighted speedup over alone-IPC)\n")
	fmt.Fprintf(&b, "%-8s%-9s%10s%10s%10s%14s%14s\n", "WL", "Density", "Base", "RAIDR", "DC-REF", "DCREF/Base", "DCREF/RAIDR")
	for _, r := range rows {
		fmt.Fprintf(&b, "WL%-6d%-9s%10.3f%10.3f%10.3f%13.1f%%%13.1f%%\n",
			r.Workload, r.Density, r.WSBase, r.WSRAIDR, r.WSDCREF,
			100*(r.WSDCREF/r.WSBase-1), 100*(r.WSDCREF/r.WSRAIDR-1))
	}
	for _, s := range summaries {
		fmt.Fprintf(&b, "\n%s summary:\n", s.Density)
		fmt.Fprintf(&b, "  DC-REF vs baseline: %+.1f%% performance (paper at 32Gbit: +18.0%%)\n", s.DCREFvsBase)
		fmt.Fprintf(&b, "  RAIDR  vs baseline: %+.1f%% performance\n", s.RAIDRvsBase)
		fmt.Fprintf(&b, "  DC-REF vs RAIDR:    %+.1f%% performance (paper: +3.0%%)\n", s.DCREFvsRAIDR)
		fmt.Fprintf(&b, "  refresh reduction vs baseline: %.1f%% (paper: 73%%)\n", s.RefReductionVsBase)
		fmt.Fprintf(&b, "  refresh reduction vs RAIDR:    %.1f%% (paper: 27.6%%)\n", s.RefReductionVsRAIDR)
		fmt.Fprintf(&b, "  DC-REF fast rows: %.1f%% of all rows (paper: 2.7%%)\n", s.DCREFFastFrac)
		fmt.Fprintf(&b, "  DRAM energy per instruction vs baseline: %.1f%% lower\n", s.EnergySaving)
	}
	return b.String()
}

// Table2 renders the simulated system configuration (Table 2).
func Table2() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: Configuration of simulated systems\n")
	fmt.Fprintf(&b, "%-18s%s\n", "Processor", "8 cores, 3.2 GHz, MLP window per core (3-wide OoO proxy)")
	fmt.Fprintf(&b, "%-18s%s\n", "Memory", "DDR3-1600, 2 channels, 2 ranks/channel, 8 banks/rank")
	fmt.Fprintf(&b, "%-18s%s\n", "Refresh", "baseline 64 ms; RAIDR 64/256 ms (16.4%/83.6% rows);")
	fmt.Fprintf(&b, "%-18s%s\n", "", "DC-REF 64 ms only for worst-case-content rows, 256 ms rest")
	fmt.Fprintf(&b, "%-18s%s\n", "tRFC", "590 ns (16 Gbit), 1 us (32 Gbit)")
	return b.String()
}
