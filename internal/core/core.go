// Package core implements PARBOR — PArallel Recursive neighBOR
// testing (Khan, Lee, Mutlu; DSN 2016): an efficient system-level
// technique that determines where a DRAM cell's physically
// neighboring cells live in the system address space, despite
// vendor-internal address scrambling, and uses that knowledge to
// uncover data-dependent failures in the whole chip with a small
// number of tests.
//
// The pipeline has the paper's five steps (Section 5.1):
//
//  1. Discover an initial victim sample with simple data patterns and
//     their inverses (Section 5.2.1).
//  2. Recursively test all victim rows in parallel, dividing rows
//     into ever-smaller regions (Section 5.2.3).
//  3. Aggregate the neighbor distances found across victims at each
//     level (Section 5.2.2).
//  4. Filter noise from random failures by discarding marginal
//     victims and ranking distances by frequency (Section 5.2.4).
//  5. Test the entire module with neighbor-aware patterns built from
//     the final distance set (Section 5.2.5).
//
// The algorithm runs exclusively against the memctl.Host write-wait-
// read interface: it never inspects the simulated chip internals.
package core

import (
	"context"
	"fmt"

	"parbor/internal/memctl"
	"parbor/internal/patterns"
)

// Config tunes the PARBOR tester.
type Config struct {
	// SampleSize caps the number of victim cells (one per row) used
	// by the recursive test. Larger samples make distance ranking
	// more robust to random failures (Figure 15). Default 10000.
	SampleSize int

	// RankThreshold is the minimum frequency of a distance, as a
	// fraction of the most frequent distance at the same level, for
	// it to be considered real (Section 5.2.4). Default 0.10: real
	// distances cluster well above it (Figure 14), random-failure
	// noise stays far below it for reasonable sample sizes.
	RankThreshold float64

	// MarginalHitLimit is the maximum number of regions a victim may
	// fail in at one recursion level before it is discarded as
	// marginal (Section 5.2.4). A genuine data-dependent victim fails
	// in at most one region per level (the one holding its coupled
	// neighbor), so the default of 2 tolerates a single coincident
	// soft error while reliably ejecting marginal and VRT cells,
	// which fail in many regions.
	MarginalHitLimit int

	// FirstSplit is the number of regions the row is divided into at
	// the first recursion level (the paper uses 2), and Fanout the
	// subdivision factor at deeper levels (the paper uses 8).
	FirstSplit int
	Fanout     int

	// Seed drives the random-pattern baseline and any tie-breaking.
	Seed uint64
}

// withDefaults fills in unset fields.
func (c Config) withDefaults() Config {
	if c.SampleSize == 0 {
		c.SampleSize = 10000
	}
	if c.RankThreshold == 0 {
		c.RankThreshold = 0.10
	}
	if c.MarginalHitLimit == 0 {
		c.MarginalHitLimit = 2
	}
	if c.FirstSplit == 0 {
		c.FirstSplit = 2
	}
	if c.Fanout == 0 {
		c.Fanout = 8
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.SampleSize < 0 {
		return fmt.Errorf("core: negative SampleSize %d", c.SampleSize)
	}
	if c.RankThreshold < 0 || c.RankThreshold > 1 {
		return fmt.Errorf("core: RankThreshold %v out of [0,1]", c.RankThreshold)
	}
	if c.MarginalHitLimit < 0 {
		return fmt.Errorf("core: negative MarginalHitLimit %d", c.MarginalHitLimit)
	}
	if c.FirstSplit < 0 || c.FirstSplit == 1 || c.Fanout < 0 || c.Fanout == 1 {
		return fmt.Errorf("core: split factors (%d, %d) must be 0 (default) or >= 2", c.FirstSplit, c.Fanout)
	}
	return nil
}

// Tester runs PARBOR against one module through its test host.
type Tester struct {
	host *memctl.Host
	cfg  Config
}

// New builds a Tester. The zero Config selects the paper's defaults.
func New(host *memctl.Host, cfg Config) (*Tester, error) {
	if host == nil {
		return nil, fmt.Errorf("core: nil host")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Tester{host: host, cfg: cfg.withDefaults()}, nil
}

// fullPassPattern runs one full-module pass with pattern p at the
// host's configured wait. A uniform p is filled once into row, a
// caller-owned buffer of Geometry().Words() words, which then backs
// every row of the pass, skipping per-row pattern generation
// entirely; row-dependent patterns ignore row and fill the host's
// per-chip buffer row by row. The host copies what it writes, so a
// caller may refill row for its next pass.
func (t *Tester) fullPassPattern(ctx context.Context, p patterns.Pattern, row []uint64) ([]memctl.BitAddr, error) {
	var src memctl.RowSource
	if p.Uniform {
		p.Fill(0, 0, 0, row)
		src = func(memctl.Row, []uint64) []uint64 { return row }
	} else {
		fill := p.Fill
		src = func(r memctl.Row, buf []uint64) []uint64 {
			fill(r.Chip, r.Bank, r.Row, buf)
			return buf
		}
	}
	return t.host.FullPass(ctx, src, t.host.WaitMs())
}

// FailureSet is a set of failing cell addresses.
type FailureSet map[memctl.BitAddr]struct{}

// Add inserts every address in addrs.
func (s FailureSet) Add(addrs []memctl.BitAddr) {
	for _, a := range addrs {
		s[a] = struct{}{}
	}
}

// Union merges other into s.
func (s FailureSet) Union(other FailureSet) {
	for a := range other {
		s[a] = struct{}{}
	}
}

// Intersect returns the number of addresses present in both sets.
func (s FailureSet) Intersect(other FailureSet) int {
	small, big := s, other
	if len(big) < len(small) {
		small, big = big, small
	}
	n := 0
	for a := range small {
		if _, ok := big[a]; ok {
			n++
		}
	}
	return n
}

// LevelReport describes one level of the recursive test.
type LevelReport struct {
	// RegionSize is the region granularity at this level, in bits.
	RegionSize int
	// Tests is the number of write-wait-read passes performed.
	Tests int
	// Frequencies maps each observed region distance to the number
	// of victims that failed at it (after marginal-victim filtering).
	Frequencies map[int]int
	// Distances is the ranked (noise-filtered) distance set.
	Distances []int
}

// NeighborResult is the outcome of neighbor-location detection.
type NeighborResult struct {
	// Levels reports each recursion level, coarse to fine.
	Levels []LevelReport
	// Distances is the final set of signed bit distances at which any
	// cell's physical neighbors can be found (Figure 8).
	Distances []int
	// Victims is the victim sample discovery found and the recursion
	// ran on, in canonical order; SampleSize is its length.
	Victims    []Victim
	SampleSize int
	// DiscoveryTests, RecursionTests are the pass counts of the two
	// phases.
	DiscoveryTests int
	RecursionTests int
	// DiscoveryFailures is every failing address observed while
	// locating the initial victim sample.
	DiscoveryFailures FailureSet
}

// TotalTests returns the pass count across both phases.
func (r *NeighborResult) TotalTests() int { return r.DiscoveryTests + r.RecursionTests }

// Report is the outcome of the full PARBOR pipeline.
type Report struct {
	Neighbor NeighborResult
	// FullChipTests is the number of neighbor-aware pattern passes.
	FullChipTests int
	// FullChipFailures is the set of failures uncovered by the
	// neighbor-aware patterns.
	FullChipFailures FailureSet
	// AllFailures is the union of every failure observed in any
	// PARBOR phase.
	AllFailures FailureSet
}

// TotalTests returns the total test budget consumed by the pipeline
// (discovery + recursion + full-chip passes), the quantity the paper
// equalizes when comparing against random-pattern testing.
func (r *Report) TotalTests() int {
	return r.Neighbor.TotalTests() + r.FullChipTests
}

// Run executes the complete PARBOR pipeline: victim discovery,
// recursive neighbor detection, and the full-chip neighbor-aware
// test. Once ctx is done the pipeline stops between (and, via the
// host, inside) passes and returns ctx's error. A cancelled run
// returns no partial report — resumable long sweeps are the
// checkpoint layer's job. Every other test operation of the Tester
// takes ctx first with the same contract.
func (t *Tester) Run(ctx context.Context) (*Report, error) {
	nr, err := t.DetectNeighborsCtx(ctx)
	if err != nil {
		return nil, err
	}
	fails, tests, err := t.FullChipTestCtx(ctx, nr.Distances)
	if err != nil {
		return nil, err
	}
	all := make(FailureSet, len(fails)+len(nr.DiscoveryFailures))
	all.Union(nr.DiscoveryFailures)
	all.Union(fails)
	return &Report{
		Neighbor:         *nr,
		FullChipTests:    tests,
		FullChipFailures: fails,
		AllFailures:      all,
	}, nil
}
