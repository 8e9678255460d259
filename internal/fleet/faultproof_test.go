package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"

	"parbor/internal/faultfs"
	"parbor/internal/fleetlog"
	"parbor/internal/memctl"
	"parbor/internal/obs"
	"parbor/internal/onlinetest"
)

// The proof suite for the disk-fault plane: the daemon's durability
// and degradation policies, exercised against injected storage
// failures whose damage lands on real files.

// sweepSpecs is the crash sweep's fixed two-module fleet.
func sweepSpecs() []ModuleSpec {
	return []ModuleSpec{testSpec(900), testSpec(901)}
}

// runFleetScenario is the scenario under test: open a daemon over
// fsys, enroll the sweep fleet, run every epoch, drain, close. The
// returned error is whatever the storage failure surfaced — crash
// replays expect one and only care about the on-disk aftermath.
func runFleetScenario(fsys faultfs.FS, stateDir, logDir string) error {
	d, err := NewDaemon(Config{Workers: 1, StateDir: stateDir, LogDir: logDir, FS: fsys})
	if err != nil {
		return err
	}
	defer d.Close()
	for _, sp := range sweepSpecs() {
		if _, err := d.Enroll(sp, nil); err != nil {
			return err
		}
	}
	d.Start(context.Background())
	d.Quiesce()
	if err := d.Drain(); err != nil {
		return err
	}
	return d.Close()
}

// readLogEvents reads every intact event with a clean filesystem.
func readLogEvents(t *testing.T, dir string) []fleetlog.Event {
	t.Helper()
	it, err := fleetlog.OpenIter(faultfs.OS{}, dir)
	if err != nil {
		t.Fatalf("OpenIter: %v", err)
	}
	defer it.Close()
	var out []fleetlog.Event
	for {
		ev, err := it.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("reading post-crash log: %v", err)
		}
		out = append(out, ev)
	}
}

// refStates runs the sweep fleet uninterrupted (no log, no state, real
// filesystem) and returns each module's final scheduler state — the
// bit-identity baseline every crash recovery must reproduce.
func refStates(t *testing.T) map[string]onlinetest.State {
	t.Helper()
	d := newDaemon(t, Config{Workers: 1})
	for _, sp := range sweepSpecs() {
		if _, err := d.Enroll(sp, nil); err != nil {
			t.Fatalf("ref enroll: %v", err)
		}
	}
	d.Start(context.Background())
	d.Quiesce()
	d.Pool().Drain()
	out := make(map[string]onlinetest.State)
	for _, m := range d.Registry().List() {
		if m.Status() != StatusDone {
			t.Fatalf("ref module %s: %s (%v)", m.ID(), m.Status(), m.Err())
		}
		out[m.ID()] = m.Snapshot().Scheduler
	}
	return out
}

// TestEveryFaultPointCrashSweep enumerates every instant the daemon's
// storage could lose power. A counting pass learns the scenario's
// operation trace; then, for every operation and for both sides of
// each torn transition (plus mid-buffer for writes), the scenario
// replays with the world stopped at exactly that point. After each
// crash the aftermath is reopened with a CLEAN filesystem and must
// satisfy the recovery contract:
//
//   - The state directory parses: every entry is the old or the new
//     checkpoint, never a torn hybrid (LoadState succeeds).
//   - The event log opens and streams: torn tails truncate away,
//     nothing upstream of them is lost (readLogEvents succeeds).
//   - Log ⊇ checkpoint: every epoch a persisted checkpoint claims is
//     present in the log — the daemon may never admit to an epoch its
//     analytics cannot see.
//   - A resumed daemon finishes the sweep bit-identically to an
//     uninterrupted run: no crash point can corrupt detection.
func TestEveryFaultPointCrashSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep skipped in -short mode")
	}
	ref := refStates(t)

	// Counting pass: a fault-free injector traces the scenario.
	count, err := faultfs.NewInjector(faultfs.OS{}, faultfs.InjectorConfig{})
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	if err := runFleetScenario(count, t.TempDir(), t.TempDir()); err != nil {
		t.Fatalf("counting pass: %v", err)
	}
	total := count.Ops()
	if total < 20 {
		t.Fatalf("scenario traced only %d ops; the sweep would be vacuous", total)
	}
	t.Logf("sweeping %d crash points x 3 crash shapes", total)

	for crashOp := 1; crashOp <= total; crashOp++ {
		for _, crashByte := range []int{0, 3, 1 << 30} {
			name := fmt.Sprintf("op%03d/byte%d", crashOp, crashByte)
			stateDir, logDir := t.TempDir(), t.TempDir()
			inj, err := faultfs.NewInjector(faultfs.OS{}, faultfs.InjectorConfig{
				CrashOp:   crashOp,
				CrashByte: crashByte,
			})
			if err != nil {
				t.Fatalf("%s: NewInjector: %v", name, err)
			}
			runFleetScenario(inj, stateDir, logDir) // error expected: the world stopped
			if !inj.Crashed() {
				t.Fatalf("%s: crash point never reached", name)
			}

			// "Reboot": reopen everything with the real filesystem.
			d, err := NewDaemon(Config{Workers: 1, StateDir: stateDir, LogDir: logDir})
			if err != nil {
				t.Fatalf("%s: reopening daemon: %v", name, err)
			}
			loaded, err := d.LoadState()
			if err != nil {
				d.Close()
				t.Fatalf("%s: LoadState after crash: %v", name, err)
			}

			// Log ⊇ checkpoint.
			logged := make(map[string]map[int]bool)
			for _, ev := range readLogEvents(t, logDir) {
				if logged[ev.Module] == nil {
					logged[ev.Module] = make(map[int]bool)
				}
				logged[ev.Module][ev.Epoch] = true
			}
			for _, m := range d.Registry().List() {
				k := m.Snapshot().Scheduler.Epochs
				for e := 1; e <= k; e++ {
					if !logged[m.ID()][e] {
						d.Close()
						t.Fatalf("%s: checkpoint for %s claims epoch %d but the log lacks it (loaded %d modules)",
							name, m.ID(), e, loaded)
					}
				}
			}

			// Enroll whatever the crash lost, then finish the sweep.
			for _, sp := range sweepSpecs() {
				if _, ok := d.Registry().Get(sp.ID); !ok {
					if _, err := d.Enroll(sp, nil); err != nil {
						d.Close()
						t.Fatalf("%s: re-enrolling %s: %v", name, sp.ID, err)
					}
				}
			}
			d.Start(context.Background())
			d.Quiesce()
			if err := d.Drain(); err != nil {
				d.Close()
				t.Fatalf("%s: recovery drain: %v", name, err)
			}
			if err := d.Close(); err != nil {
				t.Fatalf("%s: recovery close: %v", name, err)
			}

			// Bit-identity with the uninterrupted baseline.
			for _, m := range d.Registry().List() {
				if m.Status() != StatusDone {
					t.Fatalf("%s: module %s wedged: %s (%v)", name, m.ID(), m.Status(), m.Err())
				}
				got, want := m.Snapshot().Scheduler, ref[m.ID()]
				if got.Epochs != want.Epochs || got.Retries != want.Retries ||
					!reflect.DeepEqual(got.EverSeen, want.EverSeen) ||
					!reflect.DeepEqual(got.Quarantined, want.Quarantined) {
					t.Fatalf("%s: module %s recovered to a different state than the uninterrupted run", name, m.ID())
				}
			}

			// The healed log covers the full sweep for both modules.
			lr, err := fleetlog.Analyze(logDir, fleetlog.ClassifierConfig{})
			if err != nil {
				t.Fatalf("%s: analyzing healed log: %v", name, err)
			}
			if lr.Modules != 2 || lr.Epochs != 8 {
				t.Fatalf("%s: healed log covers %d modules / %d epochs, want 2 / 8", name, lr.Modules, lr.Epochs)
			}
		}
	}
}

// TestLogDegradedServingAndRecovery breaks the log's storage outright
// ("volume detached") and proves the daemon's contract: detection
// keeps running bit-identically, /healthz turns degraded with the
// reason, the episode and nothing else is counted, and once storage
// heals, a drain flushes the buffered backlog so the log ends up
// complete.
func TestLogDegradedServingAndRecovery(t *testing.T) {
	// Reference: same fleet with no log at all.
	ref := newDaemon(t, Config{Workers: 2})
	for i := 0; i < 3; i++ {
		if _, err := ref.Enroll(testSpec(910+i), nil); err != nil {
			t.Fatalf("ref enroll: %v", err)
		}
	}
	ref.Start(context.Background())
	ref.Quiesce()
	ref.Pool().Drain()

	logDir := t.TempDir()
	inj, err := faultfs.NewInjector(faultfs.OS{}, faultfs.InjectorConfig{})
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	d := newDaemon(t, Config{Workers: 2, LogDir: logDir, FS: inj})
	for i := 0; i < 3; i++ {
		if _, err := d.Enroll(testSpec(910+i), nil); err != nil {
			t.Fatalf("enroll: %v", err)
		}
	}

	// The volume detaches before the first epoch completes.
	inj.Break(nil)
	d.Start(context.Background())
	d.Quiesce()
	d.Pool().Drain()

	// Detection survived the outage, bit-identically.
	for _, m := range d.Registry().List() {
		if m.Status() != StatusDone {
			t.Fatalf("module %s did not finish under a dead log: %s (%v)", m.ID(), m.Status(), m.Err())
		}
		want, _ := ref.Registry().Get(m.ID())
		if !reflect.DeepEqual(m.Snapshot().Scheduler, want.Snapshot().Scheduler) {
			t.Fatalf("module %s: a dead log changed detection results", m.ID())
		}
	}

	// The degradation is visible and accounted.
	h := d.Health()
	if h.OK || h.Status != "degraded" || h.Reason == "" {
		t.Fatalf("health during outage: %+v", h)
	}
	if h.LogBuffered != 12 || h.LogEventsDropped != 0 {
		t.Fatalf("expected all 12 events buffered, none dropped: %+v", h)
	}
	if got := d.Report().Counters[obs.CounterLogDegraded]; got != 1 {
		t.Fatalf("counted %d degradation episodes, want 1", got)
	}
	if err := d.Reconcile(); err != nil {
		t.Fatalf("reconcile during outage: %v", err)
	}

	// /healthz serves the same picture over HTTP, still with a 200 (a
	// degraded log must not get the daemon killed by a load balancer).
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status %d during outage", rec.Code)
	}
	var hz Health
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	if hz.OK || hz.Status != "degraded" || hz.Reason == "" || hz.LogBuffered != 12 {
		t.Fatalf("healthz body during outage: %+v", hz)
	}

	// The volume reattaches; the drain's probe flushes the backlog.
	inj.Heal()
	if err := d.Drain(); err != nil {
		t.Fatalf("drain after heal: %v", err)
	}
	h = d.Health()
	if !h.OK || h.Status != "ok" || h.LogBuffered != 0 {
		t.Fatalf("health after recovery: %+v", h)
	}
	if err := d.Reconcile(); err != nil {
		t.Fatalf("reconcile after recovery: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Nothing was lost: the recovered log classifies identically to
	// the live fleet.
	lr, err := fleetlog.Analyze(logDir, fleetlog.ClassifierConfig{})
	if err != nil {
		t.Fatalf("analyzing recovered log: %v", err)
	}
	r := d.Rollup()
	if lr.Events != 12 || lr.Modules != 3 || lr.Epochs != 12 {
		t.Fatalf("recovered log events=%d modules=%d epochs=%d, want 12/3/12", lr.Events, lr.Modules, lr.Epochs)
	}
	if lr.Failures != r.Failures || !reflect.DeepEqual(lr.ByMode, r.ByMode) {
		t.Fatalf("recovered log diverged from live rollup:\nlog:  %d failures, %v\nlive: %d failures, %v",
			lr.Failures, lr.ByMode, r.Failures, r.ByMode)
	}
}

// TestLogDegradedBufferCapDrops shrinks the degraded-mode buffer below
// the event volume: the overflow must be dropped and counted, and the
// books must still reconcile (drops imply a recorded episode).
func TestLogDegradedBufferCapDrops(t *testing.T) {
	inj, err := faultfs.NewInjector(faultfs.OS{}, faultfs.InjectorConfig{})
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	d := newDaemon(t, Config{Workers: 2, LogDir: t.TempDir(), LogBufferCap: 4, FS: inj})
	for i := 0; i < 3; i++ {
		if _, err := d.Enroll(testSpec(920+i), nil); err != nil {
			t.Fatalf("enroll: %v", err)
		}
	}
	inj.Break(nil)
	d.Start(context.Background())
	d.Quiesce()
	d.Pool().Drain()

	h := d.Health()
	if h.LogBuffered != 4 || h.LogEventsDropped != 8 {
		t.Fatalf("buffer accounting: %+v (want 4 buffered, 8 dropped)", h)
	}
	rep := d.Report()
	if rep.Counters[obs.CounterLogEventsDropped] != 8 || rep.Counters[obs.CounterLogDegraded] != 1 {
		t.Fatalf("drop counters: dropped=%d degraded=%d",
			rep.Counters[obs.CounterLogEventsDropped], rep.Counters[obs.CounterLogDegraded])
	}
	if err := d.Reconcile(); err != nil {
		t.Fatalf("reconcile with drops: %v", err)
	}
	// Every module still finished: drops cost the record, never the
	// detection.
	for _, m := range d.Registry().List() {
		if m.Status() != StatusDone {
			t.Fatalf("module %s: %s (%v)", m.ID(), m.Status(), m.Err())
		}
	}
}

// oracleRollup recomputes the classification of an event set the naive
// way — everything in maps, no spilling, no streaming — mirroring the
// classifier's published semantics: distinct epochs per module,
// distinct failing cells, distinct (cell, epoch) observations, the
// transient/permanent split, and per-(chip,bank) fault modes.
func oracleRollup(events []fleetlog.Event, truncations int) *fleetlog.Rollup {
	type cell struct {
		a memctl.BitAddr
	}
	epochs := make(map[string]map[int]bool)
	obsSet := make(map[string]map[cell]map[int]bool)
	var order []string
	seen := make(map[string]bool)
	for _, ev := range events {
		if !seen[ev.Module] {
			seen[ev.Module] = true
			order = append(order, ev.Module)
		}
		if epochs[ev.Module] == nil {
			epochs[ev.Module] = make(map[int]bool)
		}
		epochs[ev.Module][ev.Epoch] = true
		for _, a := range ev.Fails {
			if obsSet[ev.Module] == nil {
				obsSet[ev.Module] = make(map[cell]map[int]bool)
			}
			c := cell{a}
			if obsSet[ev.Module][c] == nil {
				obsSet[ev.Module][c] = make(map[int]bool)
			}
			obsSet[ev.Module][c][ev.Epoch] = true
		}
	}

	r := &fleetlog.Rollup{
		Schema:      fleetlog.RollupSchema,
		Events:      len(events),
		Truncations: truncations,
		Modules:     len(order),
	}
	for _, mod := range order {
		mr := fleetlog.ModuleRollup{Module: mod, Epochs: len(epochs[mod])}
		type bankKey struct{ chip, bank int16 }
		banks := make(map[bankKey][]memctl.BitAddr)
		for c, eps := range obsSet[mod] {
			mr.Failures++
			mr.Observations += len(eps)
			if len(eps) >= 2 {
				mr.Permanent++
			} else {
				mr.Transient++
			}
			bk := bankKey{c.a.Chip, c.a.Bank}
			banks[bk] = append(banks[bk], c.a)
		}
		for _, addrs := range banks {
			mode := ModeMultiCell
			oneRow, oneCol := true, true
			for _, a := range addrs {
				if a.Row != addrs[0].Row {
					oneRow = false
				}
				if a.Col != addrs[0].Col {
					oneCol = false
				}
			}
			switch {
			case len(addrs) == 1:
				mode = ModeSingleBit
			case oneRow:
				mode = ModeSingleRow
			case oneCol:
				mode = ModeSingleColumn
			}
			if mr.ByMode == nil {
				mr.ByMode = make(map[string]int)
			}
			mr.ByMode[mode]++
		}
		r.Epochs += mr.Epochs
		r.Failures += mr.Failures
		r.Observations += mr.Observations
		r.Transient += mr.Transient
		r.Permanent += mr.Permanent
		if mr.Failures > 0 {
			r.FailingModules++
		}
		for mode, n := range mr.ByMode {
			if r.ByMode == nil {
				r.ByMode = make(map[string]int)
			}
			r.ByMode[mode] += n
		}
		r.PerModule = append(r.PerModule, mr)
	}
	sort.Slice(r.PerModule, func(i, j int) bool { return r.PerModule[i].Module < r.PerModule[j].Module })
	if len(r.PerModule) == 0 {
		r.PerModule = nil
	}
	return r
}

// TestDiskChaosSoakOracle runs a fleet with a seeded probabilistic
// fault injector under ALL durable state — the parbord -diskchaos-seed
// deployment shape — and proves the analytics contract on whatever
// survived: the streaming, spilling, out-of-core rollup of the
// surviving log must equal a naive in-memory recomputation, byte for
// byte.
func TestDiskChaosSoakOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("disk-chaos soak skipped in -short mode")
	}
	logDir := t.TempDir()
	const p = 0.02
	inj, err := faultfs.NewInjector(faultfs.OS{}, faultfs.InjectorConfig{
		Seed:           1905,
		WriteErrProb:   p,
		ShortWriteProb: p,
		SyncErrProb:    p,
		ReadErrProb:    p,
		RenameErrProb:  p,
	})
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	d, err := NewDaemon(Config{Workers: 4, LogDir: logDir, LogSegmentBytes: 1 << 10, FS: inj})
	if err != nil {
		// The injector can refuse the very first open; that is a valid
		// (if boring) draw, but this seed is chosen to get further.
		t.Fatalf("NewDaemon under chaos: %v", err)
	}
	defer d.Close()
	const n = 24
	for i := 0; i < n; i++ {
		sp := testSpec(930 + i)
		if i%3 == 0 {
			sp = withChaos(sp, i)
		}
		if _, err := d.Enroll(sp, nil); err != nil {
			t.Fatalf("enroll: %v", err)
		}
	}
	d.Start(context.Background())
	d.Quiesce()
	if err := d.Drain(); err != nil {
		t.Fatalf("drain under chaos: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close under chaos: %v", err)
	}
	if inj.Faults() == 0 {
		t.Fatalf("chaos plane injected nothing; the soak is vacuous")
	}
	for _, m := range d.Registry().List() {
		if m.Status() != StatusDone {
			t.Fatalf("module %s: %s (%v) — storage chaos must never fail detection", m.ID(), m.Status(), m.Err())
		}
	}
	t.Logf("soak: %d ops, %d faults injected, health %+v", inj.Ops(), inj.Faults(), d.Health())

	// Collect the survivors with a clean filesystem, then compare the
	// out-of-core classifier (budget forced into spill-and-merge)
	// against the naive oracle.
	it, err := fleetlog.OpenIter(faultfs.OS{}, logDir)
	if err != nil {
		t.Fatalf("OpenIter: %v", err)
	}
	var survivors []fleetlog.Event
	for {
		ev, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("surviving log is corrupt: %v", err)
		}
		survivors = append(survivors, ev)
	}
	truncs := len(it.Truncations())
	it.Close()
	if len(survivors) == 0 {
		t.Fatalf("no events survived; the oracle comparison is vacuous")
	}

	got, err := fleetlog.Analyze(logDir, fleetlog.ClassifierConfig{MaxKeys: 16, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatalf("streaming rollup of surviving log: %v", err)
	}
	want := oracleRollup(survivors, truncs)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streaming rollup diverged from the in-memory oracle:\ngot:  %+v\nwant: %+v", got, want)
	}
	t.Logf("oracle agreed: %d surviving events, %d truncations, %d failures (%d modules)",
		got.Events, got.Truncations, got.Failures, got.Modules)
}
