package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"

	"parbor/internal/checkpoint"
	"parbor/internal/faultfs"
	"parbor/internal/fleetlog"
	"parbor/internal/obs"
	"parbor/internal/strictjson"
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

// stateFile is the file in LogDir that holds the fleet: a JSON array of
// StateEntry, as -enroll files are, replaced whole at every drain.
const stateFile = "fleet-state.json"

// stateWriteAttempts bounds how often a drain tries to write the state
// file before it reports the failure.
const stateWriteAttempts = 3

// StateEntry is one module's durable record: the enrollment spec plus
// the latest checkpoint snapshot. An array of these is the whole
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
	// LogDir, when non-empty, is the daemon's durable directory. It
	// holds the append-only failure-event log — every completed epoch
	// appends one fleetlog event, and /v1/analytics classifies the
	// accumulated log — and the fleet state file, which every Drain
	// replaces and NewDaemon enrolls from when it exists.
	LogDir string
	// LogRetain, when > 0, garbage-collects the event log down to the
	// newest LogRetain segments after each drain (once the state is
	// persisted). The active tail segment always survives.
	LogRetain int
	// FS is the filesystem seam all durable state (event log, state
	// file) goes through; nil selects the real filesystem. Tests and
	// parbord's -diskchaos-seed flag swap in a fault injector.
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

// NewDaemon builds an idle daemon; call Start to launch the
// workers, and Close when done so the event log is flushed shut. With
// a LogDir that holds a state file, the fleet the last Drain persisted
// is enrolled again, each module resuming from its snapshot.
func NewDaemon(cfg Config) (*Daemon, error) {
	fsys := cfg.FS
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	d := &Daemon{
		cfg:  cfg,
		fsys: fsys,
		reg:  newRegistry(),
		pool: newPool(cfg.Workers),
		col:  obs.NewCollector(),
	}
	if cfg.LogDir != "" {
		sink, err := newLogSink(cfg.LogDir, fleetlog.WriterOptions{FS: fsys}, defaultLogBufferCap, d.col)
		if err != nil {
			return nil, err
		}
		d.log = sink
		if err := d.loadState(); err != nil {
			//parbor:droperr the state file's error is the one to report; closing the just-opened log adds nothing
			sink.close()
			return nil, err
		}
	}
	return d, nil
}

// sink returns the event-log append hook for enrolled modules, or nil
// when no log is configured.
func (d *Daemon) sink() func(fleetlog.Event) {
	if d.log == nil {
		return nil
	}
	return d.log.append
}

// Registry exposes the membership table (read-mostly; mutate through
// Enroll and the API).
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
	if err := d.reg.add(m); err != nil {
		return nil, err
	}
	d.col.Add(CounterEnrolled, 1)
	if m.Status() != StatusDone {
		d.pool.submit(m)
	}
	return m, nil
}

// retire removes a module from the fleet. Its last snapshot remains
// readable through the returned module until the caller drops it.
func (d *Daemon) retire(id string) bool {
	ok := d.reg.remove(id)
	if ok {
		d.col.Add(CounterRetired, 1)
	}
	return ok
}

// Start launches the scheduler workers.
func (d *Daemon) Start(ctx context.Context) { d.pool.start(ctx) }

// Drain gracefully stops the scheduler: every in-flight quantum
// finishes (refreshing its module's snapshot), then workers exit.
// After Drain every enrolled module has a current checkpoint by
// construction. With a LogDir, the fleet is persisted to its state
// file.
func (d *Daemon) Drain() error {
	d.pool.drain()
	if d.log == nil {
		return nil
	}
	// Sync the log BEFORE persisting checkpoints: a crash between the
	// two leaves the log ahead of the state, and replayed epochs re-log
	// duplicate events the analytics deduplicate. The other order could
	// lose events for checkpointed epochs. A log failure here degrades
	// (it is the sink's problem now) rather than aborting the drain —
	// the checkpoints must land regardless.
	d.log.drain()
	if err := d.saveState(); err != nil {
		return err
	}
	if d.cfg.LogRetain > 0 {
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

// analytics classifies the accumulated failure-event log: the
// out-of-core counterpart of Rollup, covering every epoch ever logged
// to LogDir (including by earlier daemon incarnations) rather than the
// currently enrolled fleet's live state.
func (d *Daemon) analytics(ctx context.Context) (*fleetlog.Rollup, error) {
	if d.cfg.LogDir == "" {
		return nil, fmt.Errorf("fleet: no event log configured")
	}
	return fleetlog.Analyze(ctx, d.cfg.LogDir, fleetlog.ClassifierConfig{FS: d.fsys})
}

// Quiesce blocks until no module wants another quantum.
func (d *Daemon) Quiesce() { d.pool.quiesce() }

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

// health reports the daemon's current health.
func (d *Daemon) health() Health {
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
func (d *Daemon) Rollup() *Rollup { return buildRollup(d.reg.List()) }

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

// saveState atomically replaces the state file with one StateEntry per
// enrolled module, in enrollment order. Call only while the pool is
// quiet: it reads each module's latest snapshot, which is exactly the
// between-epochs state after a drain.
func (d *Daemon) saveState() error {
	mods := d.reg.List()
	entries := make([]StateEntry, len(mods))
	for i, m := range mods {
		entries[i] = StateEntry{Schema: StateSchema, Spec: m.spec, Snapshot: m.Snapshot()}
	}
	data, err := json.Marshal(entries)
	if err != nil {
		return fmt.Errorf("fleet: marshaling state: %w", err)
	}
	// Atomic replace: a crash mid-save leaves the previous drain's
	// fleet or this one, never a mix and never a torn file. A failed
	// attempt leaves the previous file in place, so one transient
	// storage error is retried rather than cost the next start its
	// fleet.
	path := filepath.Join(d.cfg.LogDir, stateFile)
	for attempt := 1; ; attempt++ {
		err := faultfs.WriteFileAtomic(d.fsys, path, append(data, '\n'), 0o644)
		if err == nil {
			return nil
		}
		if attempt == stateWriteAttempts {
			return fmt.Errorf("fleet: writing state: %w", err)
		}
	}
}

// loadState enrolls the state file's entries, if the file exists.
func (d *Daemon) loadState() error {
	data, err := d.fsys.ReadFile(filepath.Join(d.cfg.LogDir, stateFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("fleet: reading state: %w", err)
	}
	if _, err := d.EnrollState(data); err != nil {
		return fmt.Errorf("%s: %w", stateFile, err)
	}
	return nil
}

// EnrollState enrolls every entry of a JSON array of state entries —
// an -enroll file or the state file — and returns how many it
// enrolled. The array is parsed strictly, as on POST /v1/modules: an
// unknown field in any entry, or data after the array, is an error
// and enrolls nothing.
func (d *Daemon) EnrollState(data []byte) (int, error) {
	var entries []StateEntry
	if err := strictjson.Decode(data, &entries); err != nil {
		return 0, fmt.Errorf("fleet: parsing state entries: %w", err)
	}
	for i, e := range entries {
		if e.Schema != StateSchema {
			return i, fmt.Errorf("fleet: state entry %d: unknown schema %q", i, e.Schema)
		}
		if _, err := d.Enroll(e.Spec, e.Snapshot); err != nil {
			return i, fmt.Errorf("fleet: state entry %d: %w", i, err)
		}
	}
	return len(entries), nil
}
