package fleet

import "parbor/internal/fleetlog"

// RollupSchema identifies the fleet rollup JSON layout.
const RollupSchema = "parbor/fleet-rollup/v1"

// Fault-mode labels, following the taxonomy of the DDR4 field studies
// (single-bit / single-row / single-column / whole-bank populations).
// Classification is per (chip, bank) failure group within a module.
// The live rollup classifies with fleetlog.CountModes, the fold the
// out-of-core log analytics runs, so the two cannot drift apart.
const (
	ModeSingleBit    = fleetlog.ModeSingleBit
	ModeSingleRow    = fleetlog.ModeSingleRow
	ModeSingleColumn = fleetlog.ModeSingleColumn
	ModeMultiCell    = fleetlog.ModeMultiCell
)

// VendorRollup aggregates one vendor's slice of the fleet.
type VendorRollup struct {
	Modules        int            `json:"modules"`
	FailingModules int            `json:"failing_modules"`
	Failures       int            `json:"failures"`
	ByMode         map[string]int `json:"by_mode,omitempty"`
}

// Rollup is the fleet-wide failure summary served by GET /v1/rollup.
// It is computed from checkpoint snapshots — the immutable
// between-epoch state — so building it never blocks a running
// quantum.
type Rollup struct {
	Schema string `json:"schema"`
	// Population counts.
	Modules int `json:"modules"`
	Idle    int `json:"idle"`
	Running int `json:"running"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`
	// Progress and failure totals across the fleet.
	Epochs         int `json:"epochs"`
	FailingModules int `json:"failing_modules"`
	Failures       int `json:"failures"`
	Quarantined    int `json:"quarantined_chips"`
	Retries        int `json:"retries"`
	// Breakdown by vendor profile and by fault mode.
	ByVendor map[string]*VendorRollup `json:"by_vendor,omitempty"`
	ByMode   map[string]int           `json:"by_mode,omitempty"`
}

// buildRollup summarizes a set of modules.
func buildRollup(mods []*Module) *Rollup {
	r := &Rollup{
		Schema:   RollupSchema,
		ByVendor: make(map[string]*VendorRollup),
		ByMode:   make(map[string]int),
	}
	for _, m := range mods {
		r.Modules++
		switch m.Status() {
		case StatusRunning:
			r.Running++
		case StatusDone:
			r.Done++
		case StatusFailed:
			r.Failed++
		default:
			r.Idle++
		}
		snap := m.Snapshot()
		st := snap.Scheduler
		vr := r.ByVendor[m.spec.Vendor]
		if vr == nil {
			vr = &VendorRollup{ByMode: make(map[string]int)}
			r.ByVendor[m.spec.Vendor] = vr
		}
		vr.Modules++
		r.Epochs += st.Epochs
		r.Retries += st.Retries
		r.Quarantined += len(st.Quarantined)
		if n := len(st.EverSeen); n > 0 {
			r.FailingModules++
			vr.FailingModules++
			r.Failures += n
			vr.Failures += n
			fleetlog.CountModes(st.EverSeen, r.ByMode)
			fleetlog.CountModes(st.EverSeen, vr.ByMode)
		}
	}
	return r
}
