package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// ReportSchema identifies the report layout. Bump on incompatible
// changes; readers reject schemas they do not know.
const ReportSchema = "parbor/report/v1"

// Resilience counter names. They are defined here, next to the report
// schema and the Reconcile invariant that ties them together, because
// both their producers (internal/chaos injects the faults,
// internal/onlinetest runs the policies) report through this package
// and must agree on spelling.
const (
	// CounterChaosWriteFaults / CounterChaosReadFaults / CounterChaosStalls
	// count controller-side faults the chaos plane injected.
	CounterChaosWriteFaults = "chaos.write_faults"
	CounterChaosReadFaults  = "chaos.read_faults"
	CounterChaosStalls      = "chaos.stalls"
	// CounterRetries counts retry attempts consumed by transient
	// faults; CounterQuarantinedChips chips taken out of service;
	// CounterDegradedEpochs epochs that ran with partial coverage;
	// CounterUnrestoredBits / CounterUnrestoredRows live data that did
	// not survive an epoch (verified bit mismatches, and rows whose
	// restore never completed).
	CounterRetries          = "resilience.retries"
	CounterQuarantinedChips = "resilience.quarantined_chips"
	CounterDegradedEpochs   = "resilience.degraded_epochs"
	CounterUnrestoredBits   = "resilience.unrestored_bits"
	CounterUnrestoredRows   = "resilience.unrestored_rows"
	// CounterInheritedQuarantine counts chips that were already
	// quarantined when a scheduler resumed from a checkpoint: the
	// faults that caused the quarantine were counted by a previous
	// incarnation's report, but the coverage symptoms (degraded
	// epochs) continue in this one.
	CounterInheritedQuarantine = "resilience.inherited_quarantine"
	// CounterLogDegraded counts episodes where a persistent
	// failure of the failure-event log flipped the fleet daemon into
	// log-degraded mode (detection continues, events are buffered);
	// CounterLogEventsDropped counts events lost after the degraded
	// buffer filled. A dropped event implies at least one degradation
	// episode — Reconcile enforces it.
	CounterLogDegraded      = "resilience.log_degraded"
	CounterLogEventsDropped = "resilience.log_events_dropped"
)

// reconciledCounters is Reconcile's invariant set: every chaos.* and
// resilience.* counter its cross-checks account for, either read by a
// check or explicitly waived with a reason (CounterChaosStalls — a
// stall delays, it does not fail, so it implies no symptom to check).
// TestReconcileCoversAllCounterKeys walks the whole tree and fails if
// any chaos.* / resilience.* key is incremented anywhere without
// appearing here, so a new counter cannot silently escape
// reconciliation: adding one forces a decision about what invariant
// ties it to the rest of the report.
var reconciledCounters = map[string]bool{
	CounterChaosWriteFaults:    true,
	CounterChaosReadFaults:     true,
	CounterChaosStalls:         true, // waived: delays, never fails
	CounterRetries:             true,
	CounterQuarantinedChips:    true,
	CounterDegradedEpochs:      true,
	CounterUnrestoredBits:      true,
	CounterUnrestoredRows:      true,
	CounterInheritedQuarantine: true,
	CounterLogDegraded:         true,
	CounterLogEventsDropped:    true,
}

// Report is the structured, JSON-serializable record of one
// experiment run: what was configured, what each stage cost, how
// many DRAM commands the substrate issued, and the derived headline
// figures. DESIGN.md documents the schema field by field.
type Report struct {
	// Schema is always ReportSchema for reports this package writes.
	Schema string `json:"schema"`
	// Tool names the producing command ("parbor", "paperrepro") or
	// test harness.
	Tool string `json:"tool"`
	// Config echoes the run parameters (vendor, rows, chips, seed,
	// ...) so a report is self-describing.
	Config map[string]any `json:"config,omitempty"`
	// WallMs is the total wall-clock time from collector creation to
	// snapshot, in milliseconds.
	WallMs float64 `json:"wall_ms"`
	// Commands holds the DRAM-command totals, keyed by Cmd.String()
	// ("activate", "write", "read", "refresh").
	Commands map[string]uint64 `json:"commands"`
	// Counters holds the free-form counters ("host.passes", ...).
	Counters map[string]uint64 `json:"counters,omitempty"`
	// Stages lists the run's serial phases in start order with their
	// wall time and per-stage DRAM-command deltas.
	Stages []StageReport `json:"stages,omitempty"`
	// Timings summarizes each timing series' histogram.
	Timings map[string]TimingSummary `json:"timings,omitempty"`
	// Figures carries derived headline numbers (total tests, failure
	// counts, estimated hardware wall-clock, ...).
	Figures map[string]float64 `json:"figures,omitempty"`
}

// StageReport is one serial phase of a run.
type StageReport struct {
	Name   string  `json:"name"`
	WallMs float64 `json:"wall_ms"`
	// Commands is the DRAM-command delta issued while the stage ran.
	Commands map[string]uint64 `json:"commands,omitempty"`
}

// TimingSummary condenses one timing series.
type TimingSummary struct {
	Count   uint64  `json:"count"`
	TotalMs float64 `json:"total_ms"`
	MeanUs  float64 `json:"mean_us"`
	MinUs   float64 `json:"min_us"`
	P50Us   float64 `json:"p50_us"`
	P90Us   float64 `json:"p90_us"`
	P99Us   float64 `json:"p99_us"`
	MaxUs   float64 `json:"max_us"`
}

// Snapshot freezes the collector into a Report. Open stages are
// reported with their elapsed time so far.
func (c *Collector) Snapshot(tool string) *Report {
	if c == nil {
		return &Report{
			Schema:   ReportSchema,
			Tool:     tool,
			Commands: make(map[string]uint64, numCmds),
			Config:   map[string]any{},
		}
	}
	r := &Report{
		Schema:   ReportSchema,
		Tool:     tool,
		Commands: make(map[string]uint64, numCmds),
	}
	for i := Cmd(0); i < numCmds; i++ {
		r.Commands[i.String()] = c.cmds[i].Load()
	}
	r.WallMs = float64(time.Since(c.start)) / 1e6
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.config) > 0 {
		r.Config = make(map[string]any, len(c.config))
		for k, v := range c.config {
			r.Config[k] = v
		}
	}
	if len(c.counters) > 0 {
		r.Counters = make(map[string]uint64, len(c.counters))
		for k, v := range c.counters {
			r.Counters[k] = v
		}
	}
	if len(c.figures) > 0 {
		r.Figures = make(map[string]float64, len(c.figures))
		for k, v := range c.figures {
			r.Figures[k] = v
		}
	}
	for _, s := range c.stages {
		sr := StageReport{Name: s.name}
		after := s.after
		if !s.closed {
			sr.WallMs = float64(time.Since(s.started)) / 1e6
			for i := range after {
				after[i] = c.cmds[i].Load()
			}
		} else {
			sr.WallMs = float64(s.wall) / 1e6
		}
		delta := make(map[string]uint64, numCmds)
		for i := Cmd(0); i < numCmds; i++ {
			if d := after[i] - s.before[i]; d > 0 {
				delta[i.String()] = d
			}
		}
		if len(delta) > 0 {
			sr.Commands = delta
		}
		r.Stages = append(r.Stages, sr)
	}
	if len(c.hists) > 0 {
		r.Timings = make(map[string]TimingSummary, len(c.hists))
		names := make([]string, 0, len(c.hists))
		for name := range c.hists {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			r.Timings[name] = c.hists[name].summary()
		}
	}
	return r
}

// Reconcile checks the report's internal accounting invariants: in
// the row-granularity host model every write and every read activates
// its row exactly once, so activates must equal writes + reads. A
// report that fails to reconcile indicates an instrumentation gap —
// some path issued commands without accounting them symmetrically.
func (r *Report) Reconcile() error {
	if r.Schema != ReportSchema {
		return fmt.Errorf("obs: unknown report schema %q", r.Schema)
	}
	act := r.Commands[CmdActivate.String()]
	rw := r.Commands[CmdWrite.String()] + r.Commands[CmdRead.String()]
	if act != rw {
		return fmt.Errorf("obs: %d activates do not reconcile with %d writes + reads", act, rw)
	}
	// Resilience cross-check: the retry/quarantine/degradation
	// machinery only ever acts on injected controller faults, so a run
	// with no chaos faults must report none of its symptoms. (Stalls
	// are excluded: a stall delays, it does not fail.)
	faults := r.Counters[CounterChaosWriteFaults] + r.Counters[CounterChaosReadFaults]
	if faults == 0 {
		for _, name := range []string{
			CounterRetries,
			CounterQuarantinedChips,
			CounterUnrestoredBits,
			CounterUnrestoredRows,
		} {
			if n := r.Counters[name]; n != 0 {
				return fmt.Errorf("obs: %d %s with zero chaos faults", n, name)
			}
		}
		// Degraded epochs are the one symptom that legitimately
		// outlives its cause: a scheduler resumed with chips already
		// quarantined keeps skipping their rows, so this incarnation
		// reports partial coverage even though the faults behind the
		// quarantine were counted by the incarnation that took them.
		if n := r.Counters[CounterDegradedEpochs]; n != 0 && r.Counters[CounterInheritedQuarantine] == 0 {
			return fmt.Errorf("obs: %d %s with zero chaos faults", n, CounterDegradedEpochs)
		}
	}
	// Log-degradation cross-check: events are only ever dropped while
	// the log is degraded, so drops without a recorded degradation
	// episode mean the bookkeeping lost an episode.
	if n := r.Counters[CounterLogEventsDropped]; n > 0 && r.Counters[CounterLogDegraded] == 0 {
		return fmt.Errorf("obs: %d %s with zero %s episodes", n, CounterLogEventsDropped, CounterLogDegraded)
	}
	return nil
}

// WriteFile serializes the report as indented JSON to path.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshaling report: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("obs: writing report: %w", err)
	}
	return nil
}

// ReadReportFile loads and validates a report written by WriteFile.
func ReadReportFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: reading report: %w", err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("obs: parsing report: %w", err)
	}
	if r.Schema != ReportSchema {
		return nil, fmt.Errorf("obs: unknown report schema %q", r.Schema)
	}
	return &r, nil
}
