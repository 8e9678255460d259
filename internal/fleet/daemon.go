package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"

	"parbor/internal/checkpoint"
	"parbor/internal/faultfs"
	"parbor/internal/fleetlog"
	"parbor/internal/obs"
)

// Fleet-level counter names, reported into the daemon's own
// collector. They are reconciled against per-module state by
// Reconcile.
const (
	CounterEnrolled    = "fleet.enrolled"
	CounterRetired     = "fleet.retired"
	CounterEpochs      = "fleet.epochs"
	CounterNewFailures = "fleet.new_failures"
	// CounterRetiredEpochs counts the epochs that retired modules ran
	// under this daemon, including an epoch that was in flight when its
	// module was retired.
	CounterRetiredEpochs = "fleet.retired_epochs"
)

// StateSchema identifies the persisted per-module state entry layout.
const StateSchema = "parbor/fleet-state/v1"

// StateEntry is one module's durable record: the enrollment spec plus
// the latest checkpoint snapshot. A directory of these is the whole
// daemon state — rebuilding every entry reproduces the fleet exactly,
// and each member resumes bit-identically from its snapshot.
type StateEntry struct {
	Schema   string               `json:"schema"`
	Spec     ModuleSpec           `json:"spec"`
	Snapshot *checkpoint.Snapshot `json:"snapshot,omitempty"`
}

// Config tunes a Daemon.
type Config struct {
	// Workers bounds the epoch scheduler; <= 0 selects GOMAXPROCS.
	Workers int
	// StateDir, when non-empty, is where SaveState persists one JSON
	// entry per module and LoadState resumes from. Created on demand.
	StateDir string
	// LogDir, when non-empty, enables the append-only failure-event
	// log: every completed epoch appends one fleetlog event, and the
	// /v1/analytics endpoint classifies the accumulated log.
	LogDir string
	// LogSegmentBytes caps each log segment; <= 0 selects the fleetlog
	// default.
	LogSegmentBytes int64
	// LogRetain, when > 0, garbage-collects the event log down to the
	// newest LogRetain segments after each drain (once the state is
	// persisted). The active tail segment always survives.
	LogRetain int
	// LogBufferCap bounds the events held in memory while the log is
	// degraded; <= 0 selects a default (defaultLogBufferCap). Events
	// beyond the cap are dropped and counted.
	LogBufferCap int
	// FS is the filesystem seam all durable state (event log, state
	// entries) goes through; nil selects the real filesystem. Tests
	// and parbord's -diskchaos-seed flag swap in a fault injector.
	FS faultfs.FS
}

// Daemon ties the fleet together: registry + pool + fleet-level
// observability + persistence. One Daemon is one parbord process.
type Daemon struct {
	cfg  Config
	fsys faultfs.FS
	reg  *Registry
	pool *Pool
	col  *obs.Collector
	log  *logSink
}

// NewDaemon builds an idle daemon; call Start (or Run) to launch the
// workers, and Close when done so the event log is flushed shut.
func NewDaemon(cfg Config) (*Daemon, error) {
	fsys := cfg.FS
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	d := &Daemon{
		cfg:  cfg,
		fsys: fsys,
		reg:  NewRegistry(),
		pool: NewPool(cfg.Workers),
		col:  obs.NewCollector(),
	}
	if cfg.LogDir != "" {
		sink, err := newLogSink(cfg.LogDir, fleetlog.WriterOptions{
			SegmentBytes: cfg.LogSegmentBytes,
			FS:           fsys,
		}, cfg.LogBufferCap, d.col)
		if err != nil {
			return nil, err
		}
		d.log = sink
	}
	return d, nil
}

// sink returns the event-log append hook for enrolled modules, or nil
// when no log is configured.
func (d *Daemon) sink() func(fleetlog.Event) error {
	if d.log == nil {
		return nil
	}
	return d.log.append
}

// Registry exposes the membership table (read-mostly; mutate through
// Enroll/Retire).
func (d *Daemon) Registry() *Registry { return d.reg }

// Pool exposes the epoch scheduler.
func (d *Daemon) Pool() *Pool { return d.pool }

// Enroll validates and builds a module from spec (resuming from snap
// when non-nil), registers it, and queues it for its first quantum.
func (d *Daemon) Enroll(spec ModuleSpec, snap *checkpoint.Snapshot) (*Module, error) {
	m, err := buildModule(spec, snap, d.col, d.sink())
	if err != nil {
		return nil, err
	}
	if err := d.reg.Add(m); err != nil {
		return nil, err
	}
	d.col.Add(CounterEnrolled, 1)
	if m.Status() != StatusDone {
		d.pool.Submit(m)
	}
	return m, nil
}

// Retire removes a module from the fleet. Its last snapshot remains
// readable through the returned module until the caller drops it.
func (d *Daemon) Retire(id string) bool {
	ok := d.reg.Remove(id)
	if ok {
		d.col.Add(CounterRetired, 1)
	}
	return ok
}

// Start launches the scheduler workers.
func (d *Daemon) Start(ctx context.Context) { d.pool.Start(ctx) }

// Drain gracefully stops the scheduler: every in-flight quantum
// finishes (refreshing its module's snapshot), then workers exit.
// After Drain every enrolled module has a current checkpoint by
// construction. If a state dir is configured, the fleet is persisted
// to it.
func (d *Daemon) Drain() error {
	d.pool.Drain()
	if d.log != nil {
		// Sync the log BEFORE persisting checkpoints: a crash between
		// the two leaves the log ahead of the state, and replayed
		// epochs re-log duplicate events the analytics deduplicate.
		// The other order could lose events for checkpointed epochs.
		// A log failure here degrades (it is the sink's problem now)
		// rather than aborting the drain — the checkpoints must land
		// regardless.
		d.log.drain()
	}
	if d.cfg.StateDir != "" {
		if err := d.SaveState(); err != nil {
			return err
		}
	}
	if d.log != nil && d.cfg.LogRetain > 0 {
		// Retention GC only after the state landed: the newest
		// checkpoints supersede the collected segments' events.
		if _, err := fleetlog.GC(d.fsys, d.cfg.LogDir, d.cfg.LogRetain); err != nil {
			return fmt.Errorf("fleet: log retention: %w", err)
		}
	}
	return nil
}

// Close releases the daemon's file-backed resources (the event log).
// Call after Drain; idempotent.
func (d *Daemon) Close() error {
	if d.log == nil {
		return nil
	}
	return d.log.close()
}

// Analytics classifies the accumulated failure-event log: the
// out-of-core counterpart of Rollup, covering every epoch ever logged
// to LogDir (including by earlier daemon incarnations) rather than the
// currently enrolled fleet's live state.
func (d *Daemon) Analytics() (*fleetlog.Rollup, error) {
	if d.cfg.LogDir == "" {
		return nil, fmt.Errorf("fleet: no event log configured")
	}
	return fleetlog.Analyze(d.cfg.LogDir, fleetlog.ClassifierConfig{FS: d.fsys})
}

// Run is the daemon main loop: start workers, wait for ctx
// cancellation (SIGTERM in parbord), drain. The returned error is
// from state persistence, not from module failures — those are
// per-module status, visible in the rollup.
func (d *Daemon) Run(ctx context.Context) error {
	d.Start(ctx)
	<-ctx.Done()
	return d.Drain()
}

// Quiesce blocks until no module wants another quantum.
func (d *Daemon) Quiesce() { d.pool.Quiesce() }

// Health is the /healthz body: liveness plus the log-degradation
// state. OK is false while the event log is degraded — the daemon is
// serving and detecting, but its record is running on borrowed
// memory and the operator should look at Reason.
type Health struct {
	OK      bool   `json:"ok"`
	Status  string `json:"status"`
	Modules int    `json:"modules"`
	// Reason is the error that degraded the log, when Status is
	// "degraded".
	Reason string `json:"reason,omitempty"`
	// LogBuffered is how many events are waiting in memory for the
	// log to recover; LogEventsDropped how many were lost beyond the
	// buffer cap.
	LogBuffered      int    `json:"log_buffered,omitempty"`
	LogEventsDropped uint64 `json:"log_events_dropped,omitempty"`
}

// Health reports the daemon's current health.
func (d *Daemon) Health() Health {
	h := Health{OK: true, Status: "ok", Modules: d.reg.Len()}
	if d.log != nil {
		degraded, reason, buffered, dropped := d.log.health()
		h.LogBuffered = buffered
		h.LogEventsDropped = dropped
		if degraded {
			h.OK = false
			h.Status = "degraded"
			h.Reason = reason
		}
	}
	return h
}

// Rollup summarizes the current fleet.
func (d *Daemon) Rollup() *Rollup { return BuildRollup(d.reg.List()) }

// Report snapshots the daemon's fleet-level counters.
func (d *Daemon) Report() *obs.Report { return d.col.Snapshot("parbord") }

// Reconcile cross-checks the fleet-level counters against per-module
// ground truth: the daemon's epoch counter must equal the sum of
// epochs its modules ran under it — enrolled modules from their
// snapshots, retired ones through CounterRetiredEpochs, which each
// retirement fills from the module's snapshot — and every per-module
// obs report must satisfy its own invariants. Call it only while the
// pool is quiet (drained or quiesced); a running quantum legitimately
// has counters in motion.
func (d *Daemon) Reconcile() error {
	rep := d.Report()
	wantEpochs := rep.Counters[CounterRetiredEpochs]
	for _, m := range d.reg.List() {
		st := m.Snapshot().Scheduler
		if ran := st.Epochs - m.baseEpochs; ran > 0 {
			wantEpochs += uint64(ran)
		}
		if err := m.Report().Reconcile(); err != nil {
			return fmt.Errorf("fleet: module %s: %w", m.ID(), err)
		}
	}
	if got := rep.Counters[CounterEpochs]; got != wantEpochs {
		return fmt.Errorf("fleet: reconcile: daemon counted %d epochs, modules ran %d", got, wantEpochs)
	}
	// The daemon's own report carries the log-degradation counters;
	// its Reconcile enforces that dropped events imply a recorded
	// degradation episode.
	if err := rep.Reconcile(); err != nil {
		return fmt.Errorf("fleet: reconcile: %w", err)
	}
	return nil
}

// statePath maps a module ID to its state file.
func (d *Daemon) statePath(id string) string {
	return filepath.Join(d.cfg.StateDir, id+".json")
}

// SaveState writes one StateEntry per enrolled module into StateDir,
// and removes stale entries for modules no longer enrolled. Call only
// while the pool is quiet: it reads each module's latest snapshot,
// which is exactly the between-epochs state after a drain.
func (d *Daemon) SaveState() error {
	if d.cfg.StateDir == "" {
		return fmt.Errorf("fleet: no state dir configured")
	}
	if err := d.fsys.MkdirAll(d.cfg.StateDir, 0o755); err != nil {
		return fmt.Errorf("fleet: creating state dir: %w", err)
	}
	live := make(map[string]bool)
	for _, m := range d.reg.List() {
		entry := StateEntry{Schema: StateSchema, Spec: m.Spec(), Snapshot: m.Snapshot()}
		data, err := json.MarshalIndent(&entry, "", "  ")
		if err != nil {
			return fmt.Errorf("fleet: marshaling state for %s: %w", m.ID(), err)
		}
		path := d.statePath(m.ID())
		// Atomic replace: a crash mid-save must leave either the old
		// entry or the new one — a torn half-entry would poison the
		// next LoadState.
		if err := faultfs.WriteFileAtomic(d.fsys, path, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("fleet: writing state for %s: %w", m.ID(), err)
		}
		live[filepath.Base(path)] = true
	}
	names, err := d.fsys.ReadDir(d.cfg.StateDir)
	if err != nil {
		return fmt.Errorf("fleet: listing state dir: %w", err)
	}
	for _, e := range names {
		if e.IsDir() {
			continue
		}
		stale := strings.HasSuffix(e.Name(), ".json") && !live[e.Name()]
		// A .json.tmp here is debris from a crashed earlier save: every
		// rename in this save already committed.
		stale = stale || strings.HasSuffix(e.Name(), ".json.tmp")
		if stale {
			if err := d.fsys.Remove(filepath.Join(d.cfg.StateDir, e.Name())); err != nil {
				return fmt.Errorf("fleet: pruning state entry: %w", err)
			}
		}
	}
	return nil
}

// LoadState enrolls every entry found in StateDir. Entries are loaded
// in filename order so two restarts of the same fleet see the same
// enrollment order. Returns how many modules were enrolled.
func (d *Daemon) LoadState() (int, error) {
	if d.cfg.StateDir == "" {
		return 0, fmt.Errorf("fleet: no state dir configured")
	}
	entries, err := d.fsys.ReadDir(d.cfg.StateDir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, fmt.Errorf("fleet: listing state dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	n := 0
	for _, name := range names {
		path := filepath.Join(d.cfg.StateDir, name)
		data, err := d.fsys.ReadFile(path)
		if err != nil {
			return n, fmt.Errorf("fleet: reading state entry %s: %w", name, err)
		}
		var entry StateEntry
		if err := json.Unmarshal(data, &entry); err != nil {
			return n, fmt.Errorf("fleet: parsing state entry %s: %w", name, err)
		}
		if entry.Schema != StateSchema {
			return n, fmt.Errorf("fleet: state entry %s: unknown schema %q", name, entry.Schema)
		}
		if _, err := d.Enroll(entry.Spec, entry.Snapshot); err != nil {
			return n, fmt.Errorf("fleet: resuming %s: %w", name, err)
		}
		n++
	}
	return n, nil
}
