// Package checkpoint serializes an online-test sweep so it can be
// interrupted and resumed bit-identically — the property PARBOR's
// deployment setting needs, because VRT-aware sweeps run for hours
// (Section 5.2.1) and a field system cannot promise an uninterrupted
// machine for that long.
//
// A snapshot captures exactly the state that diverges between a
// fresh module and one mid-sweep:
//
//   - The scheduler's progress (onlinetest.State): cursor, rounds,
//     failure sets, quarantine list, resilience totals.
//   - Each chip's simulation clock (virtual time and pass counter),
//     which seeds every future stochastic draw.
//
// Row contents are deliberately NOT captured: a completed epoch
// restores the live data it saved, so between epochs the array holds
// exactly what the application wrote — which, for a module rebuilt
// from its seed, is the initial contents. Restoring the clocks onto a
// freshly constructed module (same config, same seed) therefore
// reproduces the mid-sweep module state exactly, and the resumed
// sweep's remaining epochs produce bit-identical failures to the
// uninterrupted run. The host's fault-plane attempt counter is
// captured too (HostAttempts): a chaos plane keys every injected
// fault on it, so restoring it extends the bit-identity guarantee to
// runs with a fault plane attached — the resumed host replays the
// exact fault schedule the uninterrupted run would have drawn.
package checkpoint

import (
	"encoding/json"
	"fmt"

	"parbor/internal/dram"
	"parbor/internal/onlinetest"
	"parbor/internal/strictjson"
)

// Schema identifies the snapshot layout. Bump on incompatible
// changes; readers reject schemas they do not know. v2 writes the
// scheduler's failure sets as base64 strings of the failure-list codec
// (memctl.AppendAddrs) where v1 wrote arrays of cell objects.
const Schema = "parbor/checkpoint/v2"

// Clock is one chip's simulation clock.
type Clock struct {
	NowMs float64 `json:"now_ms"`
	Pass  uint64  `json:"pass"`
}

// ModuleIdent pins the module a snapshot belongs to. Resume refuses a
// module whose identity does not match: clocks applied to a different
// geometry or seed would silently produce garbage.
type ModuleIdent struct {
	Name   string `json:"name"`
	Vendor string `json:"vendor"`
	Chips  int    `json:"chips"`
	Banks  int    `json:"banks"`
	Rows   int    `json:"rows"`
	Cols   int    `json:"cols"`
}

// Snapshot is the parbor/checkpoint/v2 format.
type Snapshot struct {
	Schema string      `json:"schema"`
	Module ModuleIdent `json:"module"`
	// Seed is the module's process-variation seed, recorded so a
	// resuming process can rebuild the identical module without
	// trusting its command line. (The module itself does not retain
	// it, so the captor provides it.)
	Seed      uint64           `json:"seed"`
	Scheduler onlinetest.State `json:"scheduler"`
	Clocks    []Clock          `json:"clocks"`
	// HostAttempts is the memctl.Host attempt counter at capture time
	// — the entropy an attached fault plane keys its draws on. Zero in
	// snapshots from hosts without a plane (the counter still advances
	// there, but nothing observes it, so restoring zero is harmless
	// for old snapshots). Captors record it with host.Attempts();
	// resumers restore it with host.SetAttempts before the first pass.
	HostAttempts int `json:"host_attempts,omitempty"`
}

// ident distills a module's identity.
func ident(mod *dram.Module) ModuleIdent {
	g := mod.Geometry()
	return ModuleIdent{
		Name:   mod.Name(),
		Vendor: mod.Vendor().String(),
		Chips:  mod.Chips(),
		Banks:  g.Banks,
		Rows:   g.Rows,
		Cols:   g.Cols,
	}
}

// Capture snapshots a mid-sweep run: the scheduler's exported state
// plus the module's per-chip clocks. seed is the module's
// construction seed. Call it between epochs (never mid-epoch —
// RunEpoch holds saved live data that a snapshot does not cover).
// The snapshot shares st's failure sets with the scheduler, which is
// safe because the scheduler never rewrites a published prefix (see
// onlinetest.Scheduler.State); treat them as read-only.
func Capture(mod *dram.Module, seed uint64, st onlinetest.State) *Snapshot {
	snap := &Snapshot{Schema: Schema, Module: ident(mod), Seed: seed, Scheduler: st}
	for i := 0; i < mod.Chips(); i++ {
		now, pass := mod.Chip(i).Clock()
		snap.Clocks = append(snap.Clocks, Clock{NowMs: now, Pass: pass})
	}
	return snap
}

// Validate checks the snapshot against the module it is about to be
// applied to.
func (s *Snapshot) Validate(mod *dram.Module) error {
	if s.Schema != Schema {
		return fmt.Errorf("checkpoint: unknown schema %q", s.Schema)
	}
	if got := ident(mod); got != s.Module {
		return fmt.Errorf("checkpoint: snapshot is of module %+v, not %+v", s.Module, got)
	}
	if len(s.Clocks) != mod.Chips() {
		return fmt.Errorf("checkpoint: %d clocks for %d chips", len(s.Clocks), mod.Chips())
	}
	if s.HostAttempts < 0 {
		return fmt.Errorf("checkpoint: negative host attempt counter %d", s.HostAttempts)
	}
	for i, c := range s.Clocks {
		if c.NowMs < 0 {
			return fmt.Errorf("checkpoint: chip %d: negative clock %v", i, c.NowMs)
		}
	}
	return nil
}

// Apply restores the snapshot's clocks onto a freshly constructed
// module (same config and seed as the captured one). After Apply the
// module is in the captured mid-sweep state; rebuild the scheduler
// with onlinetest.Resume.
func (s *Snapshot) Apply(mod *dram.Module) error {
	if err := s.Validate(mod); err != nil {
		return err
	}
	for i, c := range s.Clocks {
		mod.Chip(i).SetClock(c.NowMs, c.Pass)
	}
	return nil
}

// Marshal serializes the snapshot as indented JSON with a trailing
// newline, the bytes package fleet streams over HTTP. Snapshots live
// in memory; the fleet persists them inside its state file.
func (s *Snapshot) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("checkpoint: marshaling snapshot: %w", err)
	}
	return append(data, '\n'), nil
}

// Unmarshal parses a snapshot serialized by Marshal, rejecting
// unknown schemas, unknown fields and trailing data. A typoed field
// must not resume silently at its zero value: a host attempt count
// that restarts at 0 draws a different chaos-plane fault schedule.
func Unmarshal(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := strictjson.Decode(data, &s); err != nil {
		return nil, fmt.Errorf("checkpoint: parsing snapshot: %w", err)
	}
	if s.Schema != Schema {
		return nil, fmt.Errorf("checkpoint: unknown schema %q", s.Schema)
	}
	return &s, nil
}
