package fleet

import (
	"context"
	"reflect"
	"testing"
	"time"

	"parbor/internal/fleetlog"
)

// TestSoakThousandModulesDrainResume is the fleet acceptance test: a
// parbord-shaped daemon enrolls 1,000 modules (a third with chaos
// kill/revive planes), drives them concurrently under the bounded
// worker pool, is drained mid-run the way SIGTERM drains parbord, and
// a second daemon resumed from the persisted state finishes the work.
// Every module's final failure set must be bit-identical to an
// uninterrupted reference fleet's. Run it under -race at GOMAXPROCS=8
// (the CI matrix does) to also make it a scheduler race soak.
func TestSoakThousandModulesDrainResume(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const n = 1000
	specs := make([]ModuleSpec, n)
	for i := range specs {
		sp := testSpec(i)
		if i%3 == 0 {
			sp = withChaos(sp, i)
		}
		specs[i] = sp
	}

	// Reference fleet: uninterrupted run to quiescence.
	ref := newDaemon(t, Config{Workers: 8})
	for _, sp := range specs {
		if _, err := ref.Enroll(sp, nil); err != nil {
			t.Fatalf("ref enroll %s: %v", sp.ID, err)
		}
	}
	ref.Start(context.Background())
	ref.Quiesce()
	ref.Pool().drain()
	if err := ref.Reconcile(); err != nil {
		t.Fatalf("ref reconcile: %v", err)
	}

	// Interrupted fleet: drain mid-run (parbord's SIGTERM path is
	// exactly this — cancel the run context, Daemon.Run drains and
	// persists). Both incarnations append to the same event log, as
	// parbord restarted with the same -log-dir would.
	logDir := t.TempDir()
	d1 := newDaemon(t, Config{Workers: 8, LogDir: logDir})
	for _, sp := range specs {
		if _, err := d1.Enroll(sp, nil); err != nil {
			t.Fatalf("d1 enroll %s: %v", sp.ID, err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	d1.Start(ctx)
	// Let the fleet get partway through its 4000 epochs, then pull
	// the plug.
	deadline := time.Now().Add(30 * time.Second)
	for d1.Report().Counters[CounterEpochs] < 500 {
		if time.Now().After(deadline) {
			t.Fatalf("fleet stuck: only %d epochs", d1.Report().Counters[CounterEpochs])
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := d1.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The first incarnation's process is over: its log handle closes
	// and the resumed daemon reopens the directory for append.
	if err := d1.Close(); err != nil {
		t.Fatalf("closing drained daemon: %v", err)
	}

	// Post-drain invariants: nothing is mid-epoch, and every module —
	// finished or not — holds a current checkpoint.
	unfinished := 0
	for _, m := range d1.Registry().List() {
		switch m.Status() {
		case StatusRunning:
			t.Fatalf("module %s still running after drain", m.ID())
		case StatusFailed:
			t.Fatalf("module %s failed: %v", m.ID(), m.err())
		case StatusDone:
		default:
			unfinished++
		}
		if m.Snapshot() == nil {
			t.Fatalf("module %s drained without a checkpoint", m.ID())
		}
	}
	if unfinished == 0 {
		t.Fatalf("drain landed after fleet completion; resume test is vacuous")
	}
	t.Logf("drained with %d/%d modules unfinished", unfinished, n)

	// Resumed fleet: reopen the log directory, which enrolls the
	// persisted fleet, and run to quiescence.
	d2 := newDaemon(t, Config{Workers: 8, LogDir: logDir})
	if got := d2.Registry().Len(); got != n {
		t.Fatalf("resume loaded %d modules, want %d", got, n)
	}
	d2.Start(context.Background())
	d2.Quiesce()
	d2.Pool().drain()
	if err := d2.Reconcile(); err != nil {
		t.Fatalf("resumed reconcile: %v", err)
	}
	if d2.Report().Counters[CounterEpochs] == 0 {
		t.Fatalf("resumed daemon ran no epochs")
	}

	// Bit-identity: every module's post-resume state matches the
	// uninterrupted reference exactly — failure sets, quarantine
	// decisions, retry totals, epoch counts.
	sawChaosQuarantine := false
	for _, m2 := range d2.Registry().List() {
		m1, ok := ref.Registry().Get(m2.ID())
		if !ok {
			t.Fatalf("resumed fleet has unknown module %s", m2.ID())
		}
		if m2.Status() != StatusDone {
			t.Fatalf("module %s did not finish after resume: %s (err %v)", m2.ID(), m2.Status(), m2.err())
		}
		st1, st2 := m1.Snapshot().Scheduler, m2.Snapshot().Scheduler
		if !reflect.DeepEqual(st1.EverSeen, st2.EverSeen) {
			t.Fatalf("module %s: failure set diverged after resume (%d vs %d bits)",
				m2.ID(), len(st1.EverSeen), len(st2.EverSeen))
		}
		if st1.Epochs != st2.Epochs || st1.Retries != st2.Retries ||
			!reflect.DeepEqual(st1.Quarantined, st2.Quarantined) {
			t.Fatalf("module %s: progress diverged: epochs %d/%d retries %d/%d quarantined %v/%v",
				m2.ID(), st1.Epochs, st2.Epochs, st1.Retries, st2.Retries,
				st1.Quarantined, st2.Quarantined)
		}
		if len(st2.Quarantined) > 0 {
			sawChaosQuarantine = true
		}
	}
	if !sawChaosQuarantine {
		t.Fatalf("no module quarantined a chip; the kill/revive plane never bit")
	}

	// The two fleets' rollups must agree wherever state is compared
	// (population status counts trivially match — everything is done).
	r1, r2 := ref.Rollup(), d2.Rollup()
	if r1.Failures != r2.Failures || r1.FailingModules != r2.FailingModules ||
		!reflect.DeepEqual(r1.ByMode, r2.ByMode) || !reflect.DeepEqual(r1.ByVendor, r2.ByVendor) {
		t.Fatalf("rollups diverged:\nref:     %+v\nresumed: %+v", r1, r2)
	}

	// The event log, spanning both incarnations, replayed through the
	// out-of-core classifier (with a budget small enough to force
	// spill-and-merge at this scale) must reproduce the live rollup
	// exactly: same failing cells, same fault-mode split, all 4,000
	// epochs accounted for, no torn tails from a graceful drain.
	lr, err := fleetlog.Analyze(t.Context(), logDir, fleetlog.ClassifierConfig{MaxKeys: 1 << 12, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatalf("analyzing event log: %v", err)
	}
	if lr.Truncations != 0 {
		t.Fatalf("gracefully drained log has %d torn tails", lr.Truncations)
	}
	if lr.Modules != n || lr.Epochs != 4*n {
		t.Fatalf("log covers %d modules / %d epochs, want %d / %d", lr.Modules, lr.Epochs, n, 4*n)
	}
	if lr.Failures != r2.Failures || lr.FailingModules != r2.FailingModules ||
		!reflect.DeepEqual(lr.ByMode, r2.ByMode) {
		t.Fatalf("log classification diverged from live rollup:\nlog:  failures=%d failing=%d modes=%v\nlive: failures=%d failing=%d modes=%v",
			lr.Failures, lr.FailingModules, lr.ByMode, r2.Failures, r2.FailingModules, r2.ByMode)
	}
	if lr.Failures != lr.Transient+lr.Permanent {
		t.Fatalf("permanence split does not partition: %d != %d + %d", lr.Failures, lr.Transient, lr.Permanent)
	}
	if lr.Permanent == 0 {
		t.Fatalf("no fault repeated across epochs in a two-sweep budget; permanence signal is vacuous")
	}
	t.Logf("log rollup: %d events, %d failures (%d transient, %d permanent), modes %v",
		lr.Events, lr.Failures, lr.Transient, lr.Permanent, lr.ByMode)
}
