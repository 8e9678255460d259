// Package retention implements system-level retention-time profiling:
// measuring, for every DRAM row, the shortest refresh interval at
// which some cell in the row loses data under worst-case content.
//
// This is the profiling step that refresh-reduction mechanisms such
// as RAIDR (Liu et al., ISCA 2012) depend on, and one of the
// system-level optimizations the PARBOR paper argues its neighbor
// detection enables (Sections 1 and 8): without neighbor-aware
// patterns, a retention profile systematically overestimates row
// retention, because the worst-case coupling pattern is never applied
// — and a too-optimistic profile silently corrupts data.
//
// The profiler sweeps the write-to-read wait over a log-spaced
// schedule, stressing the module with a caller-chosen pattern set at
// each step, and records per row the first wait at which it failed.
package retention

import (
	"context"
	"fmt"
	"math"

	"parbor/internal/memctl"
	"parbor/internal/patterns"
)

// Config parameterizes a profiling run.
type Config struct {
	// MinMs and MaxMs bound the sweep (defaults 64 and 4096).
	MinMs float64
	MaxMs float64
	// StepsPerOctave is the number of probe intervals per doubling of
	// the wait (default 1: 64, 128, 256, ... ms).
	StepsPerOctave int
}

func (c Config) withDefaults() Config {
	if c.MinMs == 0 {
		c.MinMs = 64
	}
	if c.MaxMs == 0 {
		c.MaxMs = 4096
	}
	if c.StepsPerOctave == 0 {
		c.StepsPerOctave = 1
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.MinMs <= 0 || c.MaxMs < c.MinMs {
		return fmt.Errorf("retention: bad sweep bounds (%v, %v)", c.MinMs, c.MaxMs)
	}
	if c.StepsPerOctave < 0 {
		return fmt.Errorf("retention: negative StepsPerOctave %d", c.StepsPerOctave)
	}
	return nil
}

// NoFailure marks rows that survived the whole sweep.
const NoFailure = math.MaxFloat64

// RowProfile is one row's measured retention behavior.
type RowProfile struct {
	Row memctl.Row
	// MinRetentionMs is the shortest probed wait at which the row
	// failed, or NoFailure.
	MinRetentionMs float64
	// FailingCells is the number of distinct failing cells observed
	// at that wait.
	FailingCells int
}

// Profile is a full module profile.
type Profile struct {
	Rows  []RowProfile
	Tests int
	// Waits is the probed schedule, ascending.
	Waits []float64
}

// Profiler sweeps a module through its test host.
type Profiler struct {
	host *memctl.Host
	cfg  Config
}

// New builds a profiler.
func New(host *memctl.Host, cfg Config) (*Profiler, error) {
	if host == nil {
		return nil, fmt.Errorf("retention: nil host")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Profiler{host: host, cfg: cfg.withDefaults()}, nil
}

// Schedule returns the probe waits, ascending and log-spaced.
func (p *Profiler) Schedule() []float64 {
	var waits []float64
	ratio := math.Pow(2, 1/float64(p.cfg.StepsPerOctave))
	for w := p.cfg.MinMs; w <= p.cfg.MaxMs*1.0001; w *= ratio {
		waits = append(waits, w)
	}
	return waits
}

// ProfileModule measures the whole module with the given stress
// patterns (each is also run inverted, covering both cell
// polarities). Use neighbor-aware patterns from a prior PARBOR run
// for a worst-case-honest profile, or solid patterns to see how badly
// a naive profile overestimates retention. A done ctx stops the
// sweep inside the current pass and returns ctx's error instead of a
// partial profile.
func (p *Profiler) ProfileModule(ctx context.Context, pats []patterns.Pattern) (*Profile, error) {
	if len(pats) == 0 {
		return nil, fmt.Errorf("retention: no stress patterns")
	}
	waits := p.Schedule()
	geom := p.host.Geometry()

	minRet := make(map[memctl.Row]float64)
	failing := make(map[memctl.Row]map[int32]struct{})
	tests := 0

	for _, w := range waits {
		for _, base := range pats {
			for _, pat := range []patterns.Pattern{base, base.Inverse()} {
				fill := pat.Fill
				fails, err := p.host.FullPass(ctx, func(r memctl.Row, buf []uint64) []uint64 {
					fill(r.Chip, r.Bank, r.Row, buf)
					return buf
				}, w)
				if err != nil {
					return nil, fmt.Errorf("retention: pass at wait %v ms: %w", w, err)
				}
				tests++
				for _, a := range fails {
					row := memctl.Row{Chip: int(a.Chip), Bank: int(a.Bank), Row: int(a.Row)}
					if _, seen := minRet[row]; !seen {
						minRet[row] = w
						failing[row] = make(map[int32]struct{})
					}
					if minRet[row] == w {
						failing[row][a.Col] = struct{}{}
					}
				}
			}
		}
	}

	profile := &Profile{Tests: tests, Waits: waits}
	for chip := 0; chip < p.host.Chips(); chip++ {
		for bank := 0; bank < geom.Banks; bank++ {
			for row := 0; row < geom.Rows; row++ {
				r := memctl.Row{Chip: chip, Bank: bank, Row: row}
				rp := RowProfile{Row: r, MinRetentionMs: NoFailure}
				if w, ok := minRet[r]; ok {
					rp.MinRetentionMs = w
					rp.FailingCells = len(failing[r])
				}
				profile.Rows = append(profile.Rows, rp)
			}
		}
	}
	return profile, nil
}

// WeakRowFraction returns the fraction of rows whose measured
// retention is strictly below thresholdMs — the quantity RAIDR bins
// on (the paper measures 16.4% below 256 ms on real chips).
func (p *Profile) WeakRowFraction(thresholdMs float64) float64 {
	if len(p.Rows) == 0 {
		return 0
	}
	weak := 0
	for _, r := range p.Rows {
		if r.MinRetentionMs < thresholdMs {
			weak++
		}
	}
	return float64(weak) / float64(len(p.Rows))
}

// Histogram buckets rows by the probed wait at which they first
// failed; the final bucket counts rows that never failed.
func (p *Profile) Histogram() map[float64]int {
	h := make(map[float64]int, len(p.Waits)+1)
	for _, r := range p.Rows {
		h[r.MinRetentionMs]++
	}
	return h
}
