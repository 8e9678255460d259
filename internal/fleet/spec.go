// Package fleet multiplexes thousands of checkpointed online-test
// sweeps over a bounded worker pool — the serving-system shape PARBOR
// deploys as: one long-running daemon driving a fleet of simulated
// modules, in the style of the DDR4 field studies (per-vendor,
// per-fault-mode failure populations observed across a machine park).
//
// The pieces:
//
//   - ModuleSpec (this file): the serializable description of one
//     fleet member — geometry, seed, failure models, test config, an
//     optional per-module chaos plane, and an epoch budget.
//   - Module: an enrolled member's runtime — dram.Module, memctl.Host,
//     onlinetest.Scheduler, per-module obs.Collector — whose unit of
//     scheduling is one transactional epoch (RunQuantum). After every
//     epoch the module refreshes an in-memory parbor/checkpoint/v1
//     snapshot, so the fleet is checkpointed at all times by
//     construction, and drain needs no extra save pass.
//   - Registry: enroll/retire bookkeeping.
//   - Pool: the bounded epoch scheduler.
//   - Daemon: registry + pool + fleet-level counters + state-dir
//     persistence + the HTTP/JSON API.
//
// fleet is a serving layer, not a simulation layer: it may read the
// wall clock and use maps freely (it is outside the parborvet
// simdeterminism scope). Per-module results remain bit-deterministic
// because every stochastic draw lives below memctl, keyed on
// module-local state that scheduling cannot influence.
package fleet

import (
	"fmt"
	"strings"

	"parbor/internal/chaos"
	"parbor/internal/coupling"
	"parbor/internal/dram"
	"parbor/internal/faults"
	"parbor/internal/onlinetest"
	"parbor/internal/scramble"
)

// ModuleSpec describes one fleet member. It is the enrollment payload
// of the HTTP API and the durable half of a persisted state entry, so
// every field is JSON-serializable and the whole struct is
// self-contained: a spec plus an optional checkpoint snapshot rebuilds
// the member exactly.
type ModuleSpec struct {
	// ID names the module uniquely within the fleet. It appears in
	// state filenames, so the charset is restricted (letters, digits,
	// dot, underscore, dash).
	ID string `json:"id"`
	// Vendor is the scrambling profile name: A, B, C, linear, or toy.
	Vendor string `json:"vendor"`
	// Chips per module; 0 selects the dram default (8).
	Chips int `json:"chips,omitempty"`
	// Banks/Rows/Cols are the per-chip geometry.
	Banks int `json:"banks"`
	Rows  int `json:"rows"`
	Cols  int `json:"cols"`
	// Seed roots the module's process variation.
	Seed uint64 `json:"seed"`
	// WaitMs is the per-pass retention wait; 0 selects the memctl
	// default (4000 ms).
	WaitMs float64 `json:"wait_ms,omitempty"`
	// Coupling and Faults parameterize the cell-level failure models.
	Coupling coupling.Config `json:"coupling"`
	Faults   faults.Config   `json:"faults,omitempty"`
	// Test tunes the online-test scheduler (distances, rows per epoch,
	// retry budget).
	Test onlinetest.Config `json:"test"`
	// Chaos, when non-nil, attaches a per-module controller fault
	// plane: transient glitches and kill/revive chip outages, keyed on
	// the module's own attempt counter so sibling modules never
	// perturb each other's fault schedules.
	Chaos *chaos.Config `json:"chaos,omitempty"`
	// MaxEpochs bounds how many epochs the fleet scheduler runs for
	// this module before marking it done; 0 means unbounded (the
	// module re-queues until retired or the daemon drains).
	MaxEpochs int `json:"max_epochs,omitempty"`
}

// ParseVendor resolves a spec's vendor name.
func ParseVendor(s string) (scramble.Vendor, error) {
	switch strings.ToLower(s) {
	case "a":
		return scramble.VendorA, nil
	case "b":
		return scramble.VendorB, nil
	case "c":
		return scramble.VendorC, nil
	case "linear":
		return scramble.VendorLinear, nil
	case "toy":
		return scramble.VendorToy, nil
	default:
		return 0, fmt.Errorf("fleet: unknown vendor %q (want A|B|C|linear|toy)", s)
	}
}

// validID reports whether an ID is usable as a fleet key and a state
// filename.
func validID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	// Reject names that are only dots (".", "..") — path traversal.
	return strings.Trim(id, ".") != ""
}

// Geometry assembles the spec's per-chip layout.
func (sp ModuleSpec) Geometry() dram.Geometry {
	return dram.Geometry{Banks: sp.Banks, Rows: sp.Rows, Cols: sp.Cols}
}

// Validate rejects specs the fleet cannot build. The deeper layers
// validate again at construction; this pass exists so the API can
// refuse an enrollment with a useful error before any allocation.
func (sp ModuleSpec) Validate() error {
	if !validID(sp.ID) {
		return fmt.Errorf("fleet: invalid module id %q (want 1-128 chars of [A-Za-z0-9._-])", sp.ID)
	}
	if _, err := ParseVendor(sp.Vendor); err != nil {
		return err
	}
	if err := sp.Geometry().Validate(); err != nil {
		return fmt.Errorf("fleet: module %s: %w", sp.ID, err)
	}
	if sp.Chips < 0 {
		return fmt.Errorf("fleet: module %s: negative chip count %d", sp.ID, sp.Chips)
	}
	if sp.WaitMs < 0 {
		return fmt.Errorf("fleet: module %s: negative wait %v", sp.ID, sp.WaitMs)
	}
	if sp.MaxEpochs < 0 {
		return fmt.Errorf("fleet: module %s: negative epoch budget %d", sp.ID, sp.MaxEpochs)
	}
	if err := sp.Test.Validate(); err != nil {
		return fmt.Errorf("fleet: module %s: %w", sp.ID, err)
	}
	if sp.Chaos != nil {
		if err := sp.Chaos.Validate(); err != nil {
			return fmt.Errorf("fleet: module %s: %w", sp.ID, err)
		}
	}
	return nil
}
