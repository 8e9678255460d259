package fleet

import (
	"context"
	"fmt"
	"sync"

	"parbor/internal/chaos"
	"parbor/internal/checkpoint"
	"parbor/internal/core"
	"parbor/internal/dram"
	"parbor/internal/fleetlog"
	"parbor/internal/memctl"
	"parbor/internal/obs"
	"parbor/internal/onlinetest"
	"parbor/internal/scramble"
)

// Status is an enrolled module's lifecycle state.
type Status string

const (
	// StatusIdle: enrolled and waiting in a scheduler queue.
	StatusIdle Status = "idle"
	// StatusRunning: an epoch quantum is executing right now.
	StatusRunning Status = "running"
	// StatusDone: the epoch budget (MaxEpochs) is exhausted.
	StatusDone Status = "done"
	// StatusFailed: the last epoch returned a non-transient,
	// non-cancellation error; the module is off the schedule.
	StatusFailed Status = "failed"
	// StatusRetired: removed by the operator; workers drop it on
	// sight.
	StatusRetired Status = "retired"
)

// Module is one enrolled fleet member: the full simulation stack plus
// the bookkeeping the daemon and API read while quanta execute.
//
// Locking: execMu serializes epoch execution — memctl.Host has a
// single-caller contract, and the pool can hand the same module to a
// different worker after a drain. stateMu guards the
// observable fields (status, snapshot, error); API handlers take only
// stateMu, so a status or checkpoint read never waits on a running
// epoch. The snapshot pointer is swapped whole and each Snapshot value
// is immutable once stored, so readers may marshal it lock-free after
// the pointer load.
type Module struct {
	spec ModuleSpec

	execMu sync.Mutex
	mod    *dram.Module          //parbor:guardedby execMu
	host   *memctl.Host          //parbor:guardedby execMu
	sched  *onlinetest.Scheduler //parbor:guardedby execMu
	col    *obs.Collector

	// fleetRec receives fleet-level counters (CounterEpochs, ...) so
	// the daemon can reconcile its totals against per-module reports.
	fleetRec obs.Recorder

	// sink, when non-nil, receives one failure-event record after
	// every completed epoch — the daemon's append-only event log.
	sink func(fleetlog.Event)

	// baseEpochs is the scheduler's epoch count at enrollment: nonzero
	// when the module resumed from a checkpoint. The daemon's
	// CounterEpochs only counts epochs run under this daemon, so
	// reconciliation compares against Epochs()-baseEpochs.
	baseEpochs int

	stateMu sync.Mutex
	status  Status               //parbor:guardedby stateMu
	lastErr error                //parbor:guardedby stateMu
	snap    *checkpoint.Snapshot //parbor:guardedby stateMu
}

// buildModule constructs the runtime for a spec, optionally resuming
// from a checkpoint snapshot. A spec without a snapshot and without
// distances first gets them from detectDistances; a detection error
// refuses the enrollment. fleetRec and sink may be nil.
func buildModule(spec ModuleSpec, snap *checkpoint.Snapshot, fleetRec obs.Recorder, sink func(fleetlog.Event)) (*Module, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	vendor, err := scramble.ParseVendor(spec.Vendor)
	if err != nil {
		return nil, err
	}
	if snap == nil && len(spec.Test.Distances) == 0 {
		// Enroll keeps its context-free signature; detection at the
		// fleet's geometries takes milliseconds.
		distances, derr := detect(context.TODO(), spec, vendor)
		if derr != nil {
			return nil, fmt.Errorf("fleet: module %s: detecting neighbor distances: %w", spec.ID, derr)
		}
		spec.Test.Distances = distances
	}
	col := obs.NewCollector()
	mod, err := dram.NewModule(spec.moduleConfig(vendor, col))
	if err != nil {
		return nil, fmt.Errorf("fleet: module %s: %w", spec.ID, err)
	}
	var plane memctl.FaultPlane
	if spec.Chaos != nil {
		p, perr := chaos.New(*spec.Chaos, col)
		if perr != nil {
			return nil, fmt.Errorf("fleet: module %s: %w", spec.ID, perr)
		}
		plane = p
	}
	host, err := memctl.NewHostWithConfig(mod, memctl.HostConfig{
		WaitMs: spec.WaitMs,
		// One worker per host: fleet parallelism comes from running
		// many modules at once, not from sharding inside each tiny
		// module, and a bounded pool must not fan out under itself.
		Parallelism: 1,
		Recorder:    col,
		Faults:      plane,
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: module %s: %w", spec.ID, err)
	}
	var sched *onlinetest.Scheduler
	if snap != nil {
		if aerr := snap.Apply(mod); aerr != nil {
			return nil, fmt.Errorf("fleet: module %s: %w", spec.ID, aerr)
		}
		if serr := host.SetAttempts(snap.HostAttempts); serr != nil {
			return nil, fmt.Errorf("fleet: module %s: %w", spec.ID, serr)
		}
		sched, err = onlinetest.Resume(host, snap.Scheduler)
	} else {
		sched, err = onlinetest.New(host, spec.Test)
	}
	if err != nil {
		return nil, fmt.Errorf("fleet: module %s: %w", spec.ID, err)
	}
	m := &Module{
		spec:       spec,
		mod:        mod,
		host:       host,
		sched:      sched,
		col:        col,
		fleetRec:   fleetRec,
		sink:       sink,
		baseEpochs: sched.Epochs(),
	}
	// Checkpoint immediately: the fleet invariant is that every
	// enrolled module has a current snapshot at all times, so a drain
	// arriving before the first quantum still persists the member.
	m.snap = m.captureLocked()
	if m.budgetExhaustedLocked() {
		m.status = StatusDone
	} else {
		m.status = StatusIdle
	}
	return m, nil
}

// detect is the neighbor detection buildModule runs; tests count its
// calls through it.
var detect = detectDistances

// detectDistances runs PARBOR neighbor detection (package core, the
// default victim sample, the spec's seed) on a twin of the spec's
// module: the same geometry, failure models, wait and seed, on a
// one-worker host with no recorder and no fault plane. The enrolled
// module never sees the twin's commands, so its clocks and counters
// start exactly where they would for a spec carrying the distances.
func detectDistances(ctx context.Context, spec ModuleSpec, vendor scramble.Vendor) ([]int, error) {
	twin, err := dram.NewModule(spec.moduleConfig(vendor, nil))
	if err != nil {
		return nil, err
	}
	host, err := memctl.NewHostWithConfig(twin, memctl.HostConfig{WaitMs: spec.WaitMs, Parallelism: 1})
	if err != nil {
		return nil, err
	}
	tester, err := core.New(host, core.Config{Seed: spec.Seed})
	if err != nil {
		return nil, err
	}
	res, err := tester.DetectNeighborsCtx(ctx)
	if err != nil {
		return nil, err
	}
	return res.Distances, nil
}

// captureLocked captures the current between-epochs state. Capture
// shares the scheduler's failure sets instead of copying them (see
// onlinetest.Scheduler.State), so it costs O(1) in the failure count.
// Callers must hold execMu (or be the constructor, before the module
// is published).
func (m *Module) captureLocked() *checkpoint.Snapshot {
	snap := checkpoint.Capture(m.mod, m.spec.Seed, m.sched.State())
	snap.HostAttempts = m.host.Attempts()
	return snap
}

// budgetExhaustedLocked reports whether the epoch budget is spent.
// Callers hold execMu or run before publication.
func (m *Module) budgetExhaustedLocked() bool {
	return m.spec.MaxEpochs > 0 && m.sched.Epochs() >= m.spec.MaxEpochs
}

// runQuantum executes one transactional epoch and refreshes the
// module's checkpoint snapshot. It reports whether the module wants
// another quantum (false when done, failed, retired, or the quantum
// was cancelled — a draining pool must not requeue).
func (m *Module) runQuantum(ctx context.Context) bool {
	m.execMu.Lock()
	defer m.execMu.Unlock()

	m.stateMu.Lock()
	switch m.status {
	case StatusRetired, StatusDone, StatusFailed:
		m.stateMu.Unlock()
		return false
	}
	m.status = StatusRunning
	m.stateMu.Unlock()

	res, err := m.sched.RunEpoch(ctx)
	if err == nil && m.sink != nil {
		// Log before refreshing the checkpoint: the ordering keeps the
		// log's coverage a superset of any persisted checkpoint —
		// replayed epochs re-log duplicate events, which the analytics
		// deduplicate, whereas the reverse order could drop an epoch
		// from the log forever.
		m.sink(fleetlog.Event{
			Module: m.spec.ID,
			Epoch:  m.sched.Epochs(),
			Fails:  res.Observed,
		})
	}
	// Refresh the checkpoint only after a COMPLETED epoch. An aborted
	// epoch (cancellation or a hard fault) rolls back live data and
	// the cursor, but its partial passes still advanced the chip pass
	// clocks, the host attempt counter, and the retry totals —
	// capturing that drift would make a resumed daemon replay
	// different stochastic streams than the uninterrupted run. The
	// previous snapshot (enrollment, or the last completed epoch) is
	// exactly the state a rebuilt module resumes from bit-identically;
	// the drifted in-memory state is abandoned with this process.
	var snap *checkpoint.Snapshot
	if err == nil {
		snap = m.captureLocked()
	}

	m.stateMu.Lock()
	defer m.stateMu.Unlock()
	if err == nil {
		// Publish and count the epoch in one stateMu section, so that a
		// concurrent retire either sees this epoch in the snapshot it
		// accounts for or not at all (and then it is counted here).
		m.snap = snap
		if m.fleetRec != nil {
			m.fleetRec.Add(CounterEpochs, 1)
			m.fleetRec.Add(CounterNewFailures, uint64(len(res.NewFailures)))
			if m.status == StatusRetired {
				m.fleetRec.Add(CounterRetiredEpochs, 1)
			}
		}
	}
	if m.status == StatusRetired {
		// Retired while the quantum ran: keep the terminal status (the
		// epoch's results are still in the snapshot for archaeology)
		// and drop the module from the schedule.
		return false
	}
	if err != nil {
		if ctx.Err() != nil {
			// Cancelled quantum: the epoch did not run; the module is
			// intact and resumable, but this pool is draining.
			m.status = StatusIdle
			return false
		}
		m.status = StatusFailed
		m.lastErr = err
		return false
	}
	if m.budgetExhaustedLocked() {
		m.status = StatusDone
		return false
	}
	m.status = StatusIdle
	return true
}

// retire takes the module off the schedule. Safe to call at any time,
// and it never waits on execMu: a quantum already executing finishes
// normally (and its snapshot is kept, in case the operator re-enrolls
// from it). The epochs the module ran under this daemon move into
// CounterRetiredEpochs, so Daemon.Reconcile can still account for them
// once the module has left the registry; an epoch that completes after
// the retirement adds itself there when it publishes.
func (m *Module) retire() {
	m.stateMu.Lock()
	defer m.stateMu.Unlock()
	if m.status == StatusRetired {
		return
	}
	m.status = StatusRetired
	if ran := m.snap.Scheduler.Epochs - m.baseEpochs; ran > 0 && m.fleetRec != nil {
		m.fleetRec.Add(CounterRetiredEpochs, uint64(ran))
	}
}

// ID returns the spec ID.
func (m *Module) ID() string { return m.spec.ID }

// Status returns the lifecycle state.
func (m *Module) Status() Status {
	m.stateMu.Lock()
	defer m.stateMu.Unlock()
	return m.status
}

// err returns the error that moved the module to StatusFailed, or
// nil.
func (m *Module) err() error {
	m.stateMu.Lock()
	defer m.stateMu.Unlock()
	return m.lastErr
}

// Snapshot returns the latest parbor/checkpoint/v2 snapshot. Never
// nil for an enrolled module; the returned value is immutable.
func (m *Module) Snapshot() *checkpoint.Snapshot {
	m.stateMu.Lock()
	defer m.stateMu.Unlock()
	return m.snap
}

// Report snapshots the module's own obs collector as a
// parbor/report/v1 report.
func (m *Module) Report() *obs.Report {
	return m.col.Snapshot("fleet/" + m.spec.ID)
}
