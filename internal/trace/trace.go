// Package trace generates synthetic memory-request streams modeled on
// the 17 SPEC CPU2006 applications the paper's DC-REF evaluation uses
// (Section 8, Table 2). The real evaluation replays Pin traces of
// representative phases; those traces are not redistributable, so
// each application is summarized by the statistics that matter to a
// refresh/scheduling study — miss intensity (MPKI), row-buffer
// locality, write fraction, footprint — plus the DC-REF-specific
// probability that written data matches a worst-case coupling
// pattern. The per-app numbers are calibrated against published SPEC
// characterizations so that the workload mix spans the same
// memory-intensity range as the paper's.
package trace

import (
	"fmt"

	"parbor/internal/rng"
)

// App is a synthetic-workload profile.
type App struct {
	// Name is the SPEC benchmark name.
	Name string
	// MPKI is last-level-cache misses per kilo-instruction, i.e. DRAM
	// requests per 1000 instructions.
	MPKI float64
	// RowLocality is the probability that a request targets the same
	// DRAM row as the previous one (row-buffer hit potential).
	RowLocality float64
	// WriteFrac is the fraction of requests that are writes.
	WriteFrac float64
	// FootprintRows is the number of distinct DRAM rows the
	// application touches.
	FootprintRows int
	// ContentMatchProb is the probability that data the application
	// writes to a weak row recreates the worst-case coupling pattern
	// of some vulnerable cell in it (drives DC-REF, Section 8).
	ContentMatchProb float64
}

// SPEC2006 returns the 17 application profiles used by the Figure 16
// workloads, ordered from most to least memory-intensive.
func SPEC2006() []App {
	return []App{
		{Name: "mcf", MPKI: 33.0, RowLocality: 0.20, WriteFrac: 0.28, FootprintRows: 60000, ContentMatchProb: 0.10},
		{Name: "lbm", MPKI: 31.9, RowLocality: 0.82, WriteFrac: 0.47, FootprintRows: 50000, ContentMatchProb: 0.24},
		{Name: "soplex", MPKI: 27.9, RowLocality: 0.65, WriteFrac: 0.25, FootprintRows: 30000, ContentMatchProb: 0.14},
		{Name: "milc", MPKI: 25.7, RowLocality: 0.60, WriteFrac: 0.35, FootprintRows: 45000, ContentMatchProb: 0.30},
		{Name: "libquantum", MPKI: 25.4, RowLocality: 0.95, WriteFrac: 0.30, FootprintRows: 4000, ContentMatchProb: 0.45},
		{Name: "omnetpp", MPKI: 21.0, RowLocality: 0.30, WriteFrac: 0.40, FootprintRows: 20000, ContentMatchProb: 0.08},
		{Name: "bwaves", MPKI: 18.7, RowLocality: 0.78, WriteFrac: 0.33, FootprintRows: 55000, ContentMatchProb: 0.22},
		{Name: "GemsFDTD", MPKI: 18.3, RowLocality: 0.70, WriteFrac: 0.45, FootprintRows: 50000, ContentMatchProb: 0.18},
		{Name: "leslie3d", MPKI: 13.8, RowLocality: 0.72, WriteFrac: 0.40, FootprintRows: 25000, ContentMatchProb: 0.16},
		{Name: "sphinx3", MPKI: 12.9, RowLocality: 0.55, WriteFrac: 0.12, FootprintRows: 15000, ContentMatchProb: 0.12},
		{Name: "astar", MPKI: 9.2, RowLocality: 0.35, WriteFrac: 0.35, FootprintRows: 12000, ContentMatchProb: 0.07},
		{Name: "gcc", MPKI: 6.0, RowLocality: 0.45, WriteFrac: 0.30, FootprintRows: 10000, ContentMatchProb: 0.10},
		{Name: "zeusmp", MPKI: 4.8, RowLocality: 0.68, WriteFrac: 0.38, FootprintRows: 30000, ContentMatchProb: 0.20},
		{Name: "cactusADM", MPKI: 4.5, RowLocality: 0.66, WriteFrac: 0.42, FootprintRows: 28000, ContentMatchProb: 0.17},
		{Name: "bzip2", MPKI: 3.5, RowLocality: 0.50, WriteFrac: 0.32, FootprintRows: 8000, ContentMatchProb: 0.13},
		{Name: "hmmer", MPKI: 2.6, RowLocality: 0.60, WriteFrac: 0.25, FootprintRows: 3000, ContentMatchProb: 0.09},
		{Name: "h264ref", MPKI: 1.9, RowLocality: 0.58, WriteFrac: 0.28, FootprintRows: 5000, ContentMatchProb: 0.11},
	}
}

// AverageContentMatchProb returns the mean ContentMatchProb across
// the profile set — the number that determines DC-REF's steady-state
// fast-row fraction.
func AverageContentMatchProb(apps []App) float64 {
	if len(apps) == 0 {
		return 0
	}
	sum := 0.0
	for _, a := range apps {
		sum += a.ContentMatchProb
	}
	return sum / float64(len(apps))
}

// Request is one DRAM request of a core's stream.
type Request struct {
	// InstGap is the number of instructions the core executes before
	// issuing this request.
	InstGap int
	// Write marks a write request.
	Write bool
	// Row is the target row within the application's footprint,
	// in [0, FootprintRows).
	Row int64
}

// Stream lazily generates an application's request sequence.
// Deterministic per (app, seed).
type Stream struct {
	app     App
	src     *rng.Source
	lastRow int64
	gapMean float64
}

// NewStream builds a request stream for app.
func NewStream(app App, seed uint64) (*Stream, error) {
	if app.MPKI <= 0 {
		return nil, fmt.Errorf("trace: app %q has non-positive MPKI", app.Name)
	}
	if app.FootprintRows <= 0 {
		return nil, fmt.Errorf("trace: app %q has non-positive footprint", app.Name)
	}
	return &Stream{
		app:     app,
		src:     rng.New(seed).Split("stream-" + app.Name),
		gapMean: 1000 / app.MPKI,
	}, nil
}

// Next returns the next request.
func (s *Stream) Next() Request {
	gap := int(s.gapMean * s.src.ExpFloat64())
	if gap < 1 {
		gap = 1
	}
	row := s.lastRow
	if s.src.Float64() >= s.app.RowLocality {
		// New row: mix of streaming (next row) and random jumps, as in
		// real access patterns.
		if s.src.Float64() < 0.5 {
			row = (s.lastRow + 1) % int64(s.app.FootprintRows)
		} else {
			row = int64(s.src.Intn(s.app.FootprintRows))
		}
	}
	s.lastRow = row
	return Request{
		InstGap: gap,
		Write:   s.src.Float64() < s.app.WriteFrac,
		Row:     row,
	}
}

// Workloads builds n multi-programmed mixes of `cores` applications
// each, assigning applications uniformly at random as in the paper's
// 32 8-core workloads.
func Workloads(n, cores int, seed uint64) [][]App {
	apps := SPEC2006()
	src := rng.New(seed).Split("workloads")
	out := make([][]App, n)
	for w := range out {
		mix := make([]App, cores)
		for c := range mix {
			mix[c] = apps[src.Intn(len(apps))]
		}
		out[w] = mix
	}
	return out
}
