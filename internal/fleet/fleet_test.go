package fleet

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"parbor/internal/chaos"
	"parbor/internal/checkpoint"
	"parbor/internal/coupling"
	"parbor/internal/faults"
	"parbor/internal/fleetlog"
	"parbor/internal/memctl"
	"parbor/internal/onlinetest"
)

// newDaemon builds a daemon for a test and ties its file-backed
// resources (the event log) to the test's lifetime.
func newDaemon(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatalf("NewDaemon: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// testSpec builds a small, fast, failure-bearing member: toy
// scrambling, 2 chips x 1 bank x 8 rows x 64 cols, a 400 ms wait that
// exceeds every victim's retention threshold, and a 4-epoch budget
// (two full sweeps of the 16-row module at 8 rows per epoch).
func testSpec(i int) ModuleSpec {
	return ModuleSpec{
		ID:     fmt.Sprintf("mod-%04d", i),
		Vendor: "toy",
		Chips:  2,
		Banks:  1,
		Rows:   8,
		Cols:   64,
		Seed:   uint64(1000 + i),
		WaitMs: 400,
		Coupling: coupling.Config{
			VulnerableRate:  0.05,
			StrongLeftFrac:  0.4,
			StrongRightFrac: 0.4,
			RetentionMinMs:  100,
			RetentionMaxMs:  300,
		},
		Faults: faults.Config{WeakCellRate: 0.01},
		Test: onlinetest.Config{
			Distances:    []int{-1, 1},
			ChunkBits:    16,
			RowsPerEpoch: 8,
			MaxRetries:   3,
		},
		MaxEpochs: 4,
	}
}

// withChaos attaches a per-module fault plane: transient bus glitches
// plus a kill/revive outage of chip 1. The testSpec module runs ~33
// host attempts per epoch and epoch 2 (attempts 33..65) is the one
// that tests chip 1's rows, so a [40, 44) window kills the chip
// mid-epoch (it is quarantined — ErrChipDead is not transient) and
// revives it before the epoch's restore pass, which still tries
// quarantined chips and so recovers the live data.
func withChaos(sp ModuleSpec, i int) ModuleSpec {
	sp.Chaos = &chaos.Config{
		Seed:           uint64(77 + i),
		WriteFaultProb: 0.002,
		ReadFaultProb:  0.002,
		DeadChips:      []chaos.Window{{Chip: 1, From: 40, To: 44}},
	}
	return sp
}

func TestSpecValidate(t *testing.T) {
	good := testSpec(0)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*ModuleSpec)
	}{
		{"empty id", func(sp *ModuleSpec) { sp.ID = "" }},
		{"path id", func(sp *ModuleSpec) { sp.ID = "a/b" }},
		{"dots id", func(sp *ModuleSpec) { sp.ID = ".." }},
		{"unknown vendor", func(sp *ModuleSpec) { sp.Vendor = "vendorX" }},
		{"zero geometry", func(sp *ModuleSpec) { sp.Rows = 0 }},
		{"negative chips", func(sp *ModuleSpec) { sp.Chips = -1 }},
		{"negative wait", func(sp *ModuleSpec) { sp.WaitMs = -1 }},
		{"negative budget", func(sp *ModuleSpec) { sp.MaxEpochs = -1 }},
		{"no distances", func(sp *ModuleSpec) { sp.Test.Distances = nil }},
		{"bad chaos", func(sp *ModuleSpec) {
			sp.Chaos = &chaos.Config{WriteFaultProb: 2}
		}},
	}
	for _, tc := range cases {
		sp := testSpec(0)
		tc.mutate(&sp)
		if err := sp.Validate(); err == nil {
			t.Errorf("%s: spec accepted", tc.name)
		}
	}
}

func TestRegistryDuplicateAndRetire(t *testing.T) {
	d := newDaemon(t, Config{Workers: 1})
	if _, err := d.Enroll(testSpec(1), nil); err != nil {
		t.Fatalf("enroll: %v", err)
	}
	if _, err := d.Enroll(testSpec(1), nil); err == nil {
		t.Fatalf("duplicate enrollment accepted")
	}
	m, ok := d.Registry().Get("mod-0001")
	if !ok {
		t.Fatalf("module not registered")
	}
	if !d.Retire("mod-0001") {
		t.Fatalf("retire failed")
	}
	if d.Retire("mod-0001") {
		t.Fatalf("double retire succeeded")
	}
	if m.Status() != StatusRetired {
		t.Fatalf("retired module has status %s", m.Status())
	}
	// A retired module handed to a worker is dropped, not run.
	if m.RunQuantum(context.Background()) {
		t.Fatalf("retired module asked to be rescheduled")
	}
	if got := m.Snapshot().Scheduler.Epochs; got != 0 {
		t.Fatalf("retired module ran %d epochs", got)
	}
}

func TestFleetRunsToBudget(t *testing.T) {
	d := newDaemon(t, Config{Workers: 4})
	const n = 32
	for i := 0; i < n; i++ {
		sp := testSpec(i)
		if i%3 == 0 {
			sp = withChaos(sp, i)
		}
		if _, err := d.Enroll(sp, nil); err != nil {
			t.Fatalf("enroll %d: %v", i, err)
		}
	}
	d.Start(context.Background())
	d.Quiesce()
	d.Pool().Drain()

	foundFailures := false
	for _, m := range d.Registry().List() {
		if m.Status() != StatusDone {
			t.Fatalf("module %s finished with status %s (err %v)", m.ID(), m.Status(), m.Err())
		}
		st := m.Snapshot().Scheduler
		if st.Epochs != 4 {
			t.Fatalf("module %s ran %d epochs, want 4", m.ID(), st.Epochs)
		}
		if len(st.EverSeen) > 0 {
			foundFailures = true
		}
	}
	if !foundFailures {
		t.Fatalf("no module found any failures; fleet test is vacuous")
	}
	if err := d.Reconcile(); err != nil {
		t.Fatalf("reconcile: %v", err)
	}

	r := d.Rollup()
	if r.Modules != n || r.Done != n || r.Epochs != 4*n {
		t.Fatalf("rollup counts off: %+v", r)
	}
	if r.FailingModules == 0 || r.Failures == 0 {
		t.Fatalf("rollup lost the failures: %+v", r)
	}
	var vendorMods int
	for _, vr := range r.ByVendor {
		vendorMods += vr.Modules
	}
	if vendorMods != n {
		t.Fatalf("vendor breakdown covers %d of %d modules", vendorMods, n)
	}
}

// TestReconcileAfterRetire: retiring modules that ran must not break
// Reconcile on a healthy daemon — whether the retirement lands between
// quanta, before a module's first quantum, on a module resumed from a
// checkpoint, or in the middle of a quantum, after the epoch completed
// and logged but before it was published.
func TestReconcileAfterRetire(t *testing.T) {
	d := newDaemon(t, Config{Workers: 2})
	for i := 0; i < 4; i++ {
		if _, err := d.Enroll(testSpec(300+i), nil); err != nil {
			t.Fatalf("enroll: %v", err)
		}
	}
	d.Start(context.Background())
	d.Quiesce()
	d.Pool().Drain()

	// Between quanta: a module that ran its whole budget.
	if !d.Retire("mod-0300") {
		t.Fatal("retire of an enrolled module reported false")
	}
	// A resumed module retired after running: only the epochs it ran
	// under this daemon count.
	src, _ := d.Registry().Get("mod-0301")
	snap := src.Snapshot()
	if !d.Retire("mod-0301") {
		t.Fatal("retire reported false")
	}
	sp := testSpec(301)
	sp.MaxEpochs = 6
	if _, err := d.Enroll(sp, snap); err != nil {
		t.Fatalf("re-enroll from checkpoint: %v", err)
	}
	// Never ran: enrolled and retired before any quantum.
	if _, err := d.Enroll(testSpec(310), nil); err != nil {
		t.Fatalf("enroll: %v", err)
	}
	d.Retire("mod-0310")
	d.Start(context.Background())
	d.Quiesce()
	d.Pool().Drain()
	d.Retire("mod-0301")
	if err := d.Reconcile(); err != nil {
		t.Fatalf("reconcile after retirements between quanta: %v", err)
	}

	// Mid-quantum: the module's event sink retires it while its second
	// epoch is in flight — completed and logged, not yet published.
	const id = "mod-0320"
	var m *Module
	sink := func(ev fleetlog.Event) error {
		if ev.Epoch == 2 && !d.Retire(id) {
			t.Error("mid-quantum retire reported false")
		}
		return nil
	}
	m, err := buildModule(testSpec(320), nil, d.col, sink)
	if err != nil {
		t.Fatalf("buildModule: %v", err)
	}
	if err := d.reg.Add(m); err != nil {
		t.Fatalf("register: %v", err)
	}
	quanta := 0
	for m.RunQuantum(context.Background()) {
		quanta++
	}
	if quanta != 1 || m.Status() != StatusRetired {
		t.Fatalf("module ran %d requeued quanta and ended %s; want 1 and retired", quanta, m.Status())
	}
	if got := m.Snapshot().Scheduler.Epochs; got != 2 {
		t.Fatalf("retired module's snapshot holds %d epochs, want the in-flight one too (2)", got)
	}
	if err := d.Reconcile(); err != nil {
		t.Fatalf("reconcile after a mid-quantum retirement: %v", err)
	}
	// 4 modules x 4 epochs, 2 more after the resume, and the 2 of the
	// mid-quantum retiree.
	if got := d.Report().Counters[CounterEpochs]; got != 4*4+2+2 {
		t.Fatalf("daemon counted %d epochs, want %d", got, 4*4+2+2)
	}
}

// TestSnapshotReadsDuringSweep: snapshots share the schedulers'
// failure-set arrays, so readers marshaling them while epochs keep
// growing those sets must see each snapshot exactly as it was
// published, then and after the sweep. Run under -race, this is the
// check that the scheduler never writes below a published length.
func TestSnapshotReadsDuringSweep(t *testing.T) {
	d := newDaemon(t, Config{Workers: 2})
	var mods []*Module
	for i := 0; i < 6; i++ {
		sp := testSpec(400 + i)
		// Soft errors keep turning up new cells below the end of the
		// known set, so epochs merge into fresh arrays, not only append.
		sp.Faults.SoftErrorPerRowRead = 0.05
		sp.MaxEpochs = 24
		m, err := d.Enroll(sp, nil)
		if err != nil {
			t.Fatalf("enroll: %v", err)
		}
		mods = append(mods, m)
	}
	type read struct {
		snap *checkpoint.Snapshot
		data []byte
	}
	stop := make(chan struct{})
	done := make(chan []read)
	go func() {
		var seen []read
		defer func() { done <- seen }()
		last := make(map[*Module]*checkpoint.Snapshot)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, m := range mods {
				snap := m.Snapshot()
				if last[m] == snap {
					continue
				}
				last[m] = snap
				data, err := snap.Marshal()
				if err != nil {
					t.Error(err)
					return
				}
				ever := snap.Scheduler.EverSeen
				for j := 1; j < len(ever); j++ {
					if !addrBefore(ever[j-1], ever[j]) {
						t.Errorf("module %s: snapshot failure set out of order at %d", m.ID(), j)
						return
					}
				}
				seen = append(seen, read{snap, data})
			}
		}
	}()
	d.Start(context.Background())
	d.Quiesce()
	close(stop)
	seen := <-done
	if len(seen) < 2*len(mods) {
		t.Fatalf("only %d snapshots read during the sweep", len(seen))
	}
	for i, r := range seen {
		if data, _ := r.snap.Marshal(); string(data) != string(r.data) {
			t.Fatalf("snapshot %d changed after it was published", i)
		}
	}
	d.Pool().Drain()
	if err := d.Reconcile(); err != nil {
		t.Fatalf("reconcile: %v", err)
	}
}

func addrBefore(a, b memctl.BitAddr) bool {
	if a.Chip != b.Chip {
		return a.Chip < b.Chip
	}
	if a.Bank != b.Bank {
		return a.Bank < b.Bank
	}
	if a.Row != b.Row {
		return a.Row < b.Row
	}
	return a.Col < b.Col
}

func TestPoolDrainKeepsQueueAndRestarts(t *testing.T) {
	d := newDaemon(t, Config{Workers: 2})
	for i := 0; i < 8; i++ {
		if _, err := d.Enroll(testSpec(100+i), nil); err != nil {
			t.Fatalf("enroll: %v", err)
		}
	}
	// Drain before starting: nothing runs, everything stays queued,
	// and every module already has its enrollment snapshot.
	d.Pool().Drain()
	for _, m := range d.Registry().List() {
		if m.Snapshot() == nil {
			t.Fatalf("module %s has no snapshot before first quantum", m.ID())
		}
	}
	// Restart and run to completion.
	d.Start(context.Background())
	d.Quiesce()
	d.Pool().Drain()
	for _, m := range d.Registry().List() {
		if m.Status() != StatusDone {
			t.Fatalf("module %s not done after restart: %s", m.ID(), m.Status())
		}
	}
}

// TestPoolDrainMidQuantumRequeues drains the pool while workers are
// mid-sweep, then restarts it: every module a worker held when the
// drain landed must be queued again and run to its budget, not left
// idle and off the schedule.
func TestPoolDrainMidQuantumRequeues(t *testing.T) {
	const budget = 400
	d := newDaemon(t, Config{Workers: 2})
	for i := 0; i < 8; i++ {
		sp := testSpec(200 + i)
		sp.MaxEpochs = budget
		if _, err := d.Enroll(sp, nil); err != nil {
			t.Fatalf("enroll: %v", err)
		}
	}
	d.Start(context.Background())
	// Drain once a worker has completed an epoch, so the drain lands
	// while both workers hold modules with budget left.
	deadline := time.Now().Add(10 * time.Second)
	for !anyEpochRan(d) {
		if time.Now().After(deadline) {
			t.Fatal("no epoch completed within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	d.Pool().Drain()
	d.Start(context.Background())
	d.Quiesce()
	d.Pool().Drain()
	for _, m := range d.Registry().List() {
		if m.Status() != StatusDone {
			t.Errorf("module %s is %s after drain and restart, want done", m.ID(), m.Status())
		}
		if got := m.Snapshot().Scheduler.Epochs; got != budget {
			t.Errorf("module %s ran %d epochs, want %d", m.ID(), got, budget)
		}
	}
}

func anyEpochRan(d *Daemon) bool {
	for _, m := range d.Registry().List() {
		if m.Snapshot().Scheduler.Epochs > 0 {
			return true
		}
	}
	return false
}

// TestClassifyModes pins fleetlog.CountModes, the fault-mode fold
// BuildRollup runs over each module's canonical ever-seen set.
func TestClassifyModes(t *testing.T) {
	addr := func(chip, bank, row, col int) memctl.BitAddr {
		return memctl.BitAddr{Chip: int16(chip), Bank: int16(bank), Row: int32(row), Col: int32(col)}
	}
	cases := []struct {
		name  string
		fails []memctl.BitAddr
		want  map[string]int
	}{
		{"single bit", []memctl.BitAddr{addr(0, 0, 3, 7)},
			map[string]int{ModeSingleBit: 1}},
		{"single row", []memctl.BitAddr{addr(0, 0, 3, 7), addr(0, 0, 3, 9), addr(0, 0, 3, 40)},
			map[string]int{ModeSingleRow: 1}},
		{"single column", []memctl.BitAddr{addr(0, 0, 1, 7), addr(0, 0, 5, 7)},
			map[string]int{ModeSingleColumn: 1}},
		{"multi cell", []memctl.BitAddr{addr(0, 0, 1, 7), addr(0, 0, 5, 9)},
			map[string]int{ModeMultiCell: 1}},
		{"mixed banks and chips", []memctl.BitAddr{
			addr(0, 0, 1, 1),                   // single bit in (0,0)
			addr(0, 1, 2, 3), addr(0, 1, 2, 8), // single row in (0,1)
			addr(1, 0, 4, 4), addr(1, 0, 9, 4), // single column in (1,0)
		}, map[string]int{ModeSingleBit: 1, ModeSingleRow: 1, ModeSingleColumn: 1}},
	}
	for _, tc := range cases {
		got := make(map[string]int)
		fleetlog.CountModes(tc.fails, got)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSaveLoadStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := newDaemon(t, Config{Workers: 2, StateDir: dir})
	for i := 0; i < 6; i++ {
		if _, err := d.Enroll(testSpec(200+i), nil); err != nil {
			t.Fatalf("enroll: %v", err)
		}
	}
	d.Start(context.Background())
	d.Quiesce()
	if err := d.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	d2 := newDaemon(t, Config{Workers: 2, StateDir: dir})
	n, err := d2.LoadState()
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if n != 6 {
		t.Fatalf("loaded %d modules, want 6", n)
	}
	for _, m2 := range d2.Registry().List() {
		m1, ok := d.Registry().Get(m2.ID())
		if !ok {
			t.Fatalf("loaded unknown module %s", m2.ID())
		}
		if m2.Status() != StatusDone {
			t.Fatalf("completed module %s resumed as %s", m2.ID(), m2.Status())
		}
		if !reflect.DeepEqual(m1.Snapshot().Scheduler, m2.Snapshot().Scheduler) {
			t.Fatalf("module %s state drifted across save/load", m2.ID())
		}
	}
	// A retire followed by a save prunes the entry.
	d.Retire("mod-0203")
	if err := d.SaveState(); err != nil {
		t.Fatalf("save: %v", err)
	}
	d3 := newDaemon(t, Config{Workers: 1, StateDir: dir})
	if n, err := d3.LoadState(); err != nil || n != 5 {
		t.Fatalf("after prune: loaded %d, err %v; want 5, nil", n, err)
	}
}
