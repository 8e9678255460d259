// Package exp implements the paper-reproduction experiments: one
// function per table or figure of the evaluation (Sections 7 and 8),
// returning structured results that cmd/paperrepro prints and the
// repository benchmarks assert against.
//
// Every runner takes a ctx first: a done ctx stops the run inside the
// current pass and the runner returns ctx's error with no partial
// result.
package exp

import (
	"fmt"

	"parbor/internal/core"
	"parbor/internal/coupling"
	"parbor/internal/dram"
	"parbor/internal/faults"
	"parbor/internal/memctl"
	"parbor/internal/obs"
	"parbor/internal/scramble"
)

// Options scales the experiments. The zero value selects defaults
// sized for minutes-not-hours runtimes on a laptop.
type Options struct {
	// RowsPerChip scales the simulated chips (default 512; the
	// paper's real chips have 256K rows, see EXPERIMENTS.md for the
	// scaling discussion).
	RowsPerChip int
	// Chips per module (default 8, as on the paper's modules).
	Chips int
	// ModulesPerVendor for Figure 12 (default 6, for the paper's 18
	// modules / 144 chips).
	ModulesPerVendor int
	// Seed fixes all process variation.
	Seed uint64
	// Recorder, when non-nil, instruments every module and host the
	// experiments build: DRAM-command counters, pass counters and
	// timing histograms accumulate across all modules of the
	// experiment. It must be safe for concurrent use (Fig12 measures
	// modules in parallel). Results are bit-identical either way.
	Recorder obs.Recorder
}

func (o Options) withDefaults() Options {
	if o.RowsPerChip == 0 {
		o.RowsPerChip = 512
	}
	if o.Chips == 0 {
		o.Chips = 8
	}
	if o.ModulesPerVendor == 0 {
		o.ModulesPerVendor = 6
	}
	return o
}

// experimentCoupling is the victim population used by the detection
// experiments: denser than real chips so that scaled-down arrays
// retain statistically meaningful victim counts.
func experimentCoupling() coupling.Config {
	cfg := coupling.DefaultConfig()
	cfg.VulnerableRate = 2e-3
	return cfg
}

// newModule builds one experiment module.
func newModule(name string, vendor scramble.Vendor, o Options, seed uint64) (*dram.Module, error) {
	return dram.NewModule(dram.ModuleConfig{
		Name:     name,
		Vendor:   vendor,
		Chips:    o.Chips,
		Geometry: dram.Geometry{Banks: 1, Rows: o.RowsPerChip, Cols: 8192},
		Coupling: experimentCoupling(),
		Faults:   faults.DefaultConfig(),
		Seed:     seed,
		Recorder: o.Recorder,
	})
}

// newTester builds a host+tester pair for a fresh module instance.
func newTester(name string, vendor scramble.Vendor, o Options, seed uint64) (*core.Tester, *memctl.Host, error) {
	mod, err := newModule(name, vendor, o, seed)
	if err != nil {
		return nil, nil, err
	}
	host, err := memctl.NewHostWithConfig(mod, memctl.HostConfig{Recorder: o.Recorder})
	if err != nil {
		return nil, nil, err
	}
	t, err := core.New(host, core.Config{Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	return t, host, nil
}

// moduleSeed derives a per-module seed.
func moduleSeed(base uint64, vendor scramble.Vendor, idx int) uint64 {
	return base + uint64(vendor)*1000 + uint64(idx)
}

// moduleName renders the paper's module labels (A1, B3, ...).
func moduleName(vendor scramble.Vendor, idx int) string {
	return fmt.Sprintf("%s%d", vendor, idx+1)
}
