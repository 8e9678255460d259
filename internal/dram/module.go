package dram

import (
	"fmt"

	"parbor/internal/coupling"
	"parbor/internal/faults"
	"parbor/internal/obs"
	"parbor/internal/scramble"
)

// ModuleConfig describes a DRAM module: several chips sharing one
// vendor profile (as on a real DIMM). The paper's modules are 2 GB
// with 8 chips.
type ModuleConfig struct {
	// Name labels the module in experiment output (e.g. "A1").
	Name string
	// Vendor selects the address-scrambling profile shared by all
	// chips on the module.
	Vendor scramble.Vendor
	// Mapping, when non-nil, overrides Vendor with a custom mapping.
	Mapping *scramble.Mapping
	// Chips is the number of chips; defaults to 8.
	Chips int
	// Geometry is the per-chip layout; defaults to
	// ExperimentGeometry.
	Geometry Geometry
	// Coupling and Faults parameterize the failure models of every
	// chip.
	Coupling coupling.Config
	Faults   faults.Config
	// Seed determines the module's process variation. Chips derive
	// independent streams from it.
	Seed uint64
	// Recorder, when non-nil, is attached to every chip for
	// DRAM-command accounting (see ChipConfig.Recorder). It must be
	// safe for concurrent use: chips record from per-chip workers.
	Recorder obs.Recorder
}

// Module is a set of simulated chips tested together, mirroring a
// DIMM behind one memory-controller channel.
//
// Concurrency contract: Module methods themselves must be serialized
// by the caller, but the *Chips returned by Chip are mutually
// independent — each chip may be driven from its own goroutine, as
// long as no single chip is touched by two goroutines at once and no
// Module-level call (Wait in particular) overlaps the per-chip work.
// The test host (package memctl) exploits exactly this: fan out per
// chip, barrier, advance the shared clock, barrier, fan out again.
type Module struct {
	name  string
	chips []*Chip
}

// NewModule builds a module of identical-vendor chips.
func NewModule(cfg ModuleConfig) (*Module, error) {
	if cfg.Chips == 0 {
		cfg.Chips = 8
	}
	if cfg.Chips < 0 {
		return nil, fmt.Errorf("dram: negative chip count %d", cfg.Chips)
	}
	m := &Module{name: cfg.Name, chips: make([]*Chip, 0, cfg.Chips)}
	for i := 0; i < cfg.Chips; i++ {
		chip, err := newChip(ChipConfig{
			Geometry: cfg.Geometry,
			Vendor:   cfg.Vendor,
			Mapping:  cfg.Mapping,
			Coupling: cfg.Coupling,
			Faults:   cfg.Faults,
			Seed:     cfg.Seed,
			Index:    i,
			Recorder: cfg.Recorder,
		})
		if err != nil {
			return nil, fmt.Errorf("dram: chip %d: %w", i, err)
		}
		m.chips = append(m.chips, chip)
	}
	return m, nil
}

// Name returns the module label.
func (m *Module) Name() string { return m.name }

// Chips returns the number of chips on the module.
func (m *Module) Chips() int { return len(m.chips) }

// Chip returns chip i.
func (m *Module) Chip(i int) *Chip { return m.chips[i] }

// Vendor returns the module's scrambling profile.
func (m *Module) Vendor() scramble.Vendor { return m.chips[0].mapping.Vendor() }

// Geometry returns the per-chip layout.
func (m *Module) Geometry() Geometry { return m.chips[0].geom }

// Wait advances simulated time on every chip (they share the
// module's clock).
func (m *Module) Wait(ms float64) {
	for _, c := range m.chips {
		c.wait(ms)
	}
}
