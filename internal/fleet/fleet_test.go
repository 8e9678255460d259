package fleet

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"parbor/internal/chaos"
	"parbor/internal/checkpoint"
	"parbor/internal/coupling"
	"parbor/internal/faults"
	"parbor/internal/fleetlog"
	"parbor/internal/memctl"
	"parbor/internal/onlinetest"
	"parbor/internal/scramble"
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
	if err := good.validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	detecting := testSpec(0)
	detecting.Test.Distances = nil
	if err := detecting.validate(); err != nil {
		t.Fatalf("spec without distances rejected: %v", err)
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
		// No distances means "detect", but the rest of Test is still
		// checked.
		{"no distances, negative rows per epoch", func(sp *ModuleSpec) {
			sp.Test.Distances, sp.Test.RowsPerEpoch = nil, -1
		}},
		{"no distances, negative chunk", func(sp *ModuleSpec) {
			sp.Test.Distances, sp.Test.ChunkBits = nil, -8
		}},
		{"no distances, negative retries", func(sp *ModuleSpec) {
			sp.Test.Distances, sp.Test.MaxRetries = nil, -1
		}},
		{"bad chaos", func(sp *ModuleSpec) {
			sp.Chaos = &chaos.Config{WriteFaultProb: 2}
		}},
	}
	for _, tc := range cases {
		sp := testSpec(0)
		tc.mutate(&sp)
		if err := sp.validate(); err == nil {
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
	if !d.retire("mod-0001") {
		t.Fatalf("retire failed")
	}
	if d.retire("mod-0001") {
		t.Fatalf("double retire succeeded")
	}
	if m.Status() != StatusRetired {
		t.Fatalf("retired module has status %s", m.Status())
	}
	// A retired module handed to a worker is dropped, not run.
	if m.runQuantum(context.Background()) {
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
	d.Pool().drain()

	foundFailures := false
	for _, m := range d.Registry().List() {
		if m.Status() != StatusDone {
			t.Fatalf("module %s finished with status %s (err %v)", m.ID(), m.Status(), m.err())
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
	d.Pool().drain()

	// Between quanta: a module that ran its whole budget.
	if !d.retire("mod-0300") {
		t.Fatal("retire of an enrolled module reported false")
	}
	// A resumed module retired after running: only the epochs it ran
	// under this daemon count.
	src, _ := d.Registry().Get("mod-0301")
	snap := src.Snapshot()
	if !d.retire("mod-0301") {
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
	d.retire("mod-0310")
	d.Start(context.Background())
	d.Quiesce()
	d.Pool().drain()
	d.retire("mod-0301")
	if err := d.Reconcile(); err != nil {
		t.Fatalf("reconcile after retirements between quanta: %v", err)
	}

	// Mid-quantum: the module's event sink retires it while its second
	// epoch is in flight — completed and logged, not yet published.
	const id = "mod-0320"
	var m *Module
	sink := func(ev fleetlog.Event) {
		if ev.Epoch == 2 && !d.retire(id) {
			t.Error("mid-quantum retire reported false")
		}
	}
	m, err := buildModule(testSpec(320), nil, d.col, sink)
	if err != nil {
		t.Fatalf("buildModule: %v", err)
	}
	if err := d.reg.add(m); err != nil {
		t.Fatalf("register: %v", err)
	}
	quanta := 0
	for m.runQuantum(context.Background()) {
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
	d.Pool().drain()
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
	d.Pool().drain()
	for _, m := range d.Registry().List() {
		if m.Snapshot() == nil {
			t.Fatalf("module %s has no snapshot before first quantum", m.ID())
		}
	}
	// Restart and run to completion.
	d.Start(context.Background())
	d.Quiesce()
	d.Pool().drain()
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
	d.Pool().drain()
	d.Start(context.Background())
	d.Quiesce()
	d.Pool().drain()
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
// buildRollup runs over each module's canonical ever-seen set.
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

// runToDrain enrolls specs into a daemon on logDir (after whatever
// fleet the directory resumes), runs them to idle, drains and closes
// it, as one parbord -run-to-idle would.
func runToDrain(t *testing.T, logDir string, specs ...ModuleSpec) *Daemon {
	t.Helper()
	d := newDaemon(t, Config{Workers: 2, LogDir: logDir})
	for _, sp := range specs {
		if _, err := d.Enroll(sp, nil); err != nil {
			t.Fatalf("enroll: %v", err)
		}
	}
	d.Start(context.Background())
	d.Quiesce()
	if err := d.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return d
}

func TestSaveLoadStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var specs []ModuleSpec
	for i := 0; i < 6; i++ {
		specs = append(specs, testSpec(200+i))
	}
	d := runToDrain(t, dir, specs...)

	d2 := newDaemon(t, Config{Workers: 2, LogDir: dir})
	if n := d2.Registry().Len(); n != 6 {
		t.Fatalf("loaded %d modules, want 6", n)
	}
	for i, m2 := range d2.Registry().List() {
		if m2.ID() != specs[i].ID {
			t.Fatalf("loaded %s at position %d, want enrollment order (%s)", m2.ID(), i, specs[i].ID)
		}
		m1, _ := d.Registry().Get(m2.ID())
		if m2.Status() != StatusDone {
			t.Fatalf("completed module %s resumed as %s", m2.ID(), m2.Status())
		}
		if !reflect.DeepEqual(m1.Snapshot().Scheduler, m2.Snapshot().Scheduler) {
			t.Fatalf("module %s state drifted across save/load", m2.ID())
		}
	}
	// A retire followed by a drain drops the module from the state.
	d2.retire("mod-0203")
	if err := d2.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := d2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	d3 := newDaemon(t, Config{Workers: 1, LogDir: dir})
	if _, ok := d3.Registry().Get("mod-0203"); ok || d3.Registry().Len() != 5 {
		t.Fatalf("after retiring mod-0203: loaded %d modules, want the other 5", d3.Registry().Len())
	}
}

// TestDrainKeepsResumedFleet: a daemon opened on a drained log
// directory resumes its fleet, so enrolling more modules and draining
// again keeps both. The per-module state directory this replaced lost
// the first fleet here whenever the second run forgot to resume it.
func TestDrainKeepsResumedFleet(t *testing.T) {
	dir := t.TempDir()
	runToDrain(t, dir, testSpec(410), testSpec(411))
	runToDrain(t, dir, testSpec(412))
	d := newDaemon(t, Config{Workers: 1, LogDir: dir})
	var got []string
	for _, m := range d.Registry().List() {
		got = append(got, m.ID())
		if m.Status() != StatusDone {
			t.Errorf("module %s resumed as %s, want done", m.ID(), m.Status())
		}
	}
	if want := []string{"mod-0410", "mod-0411", "mod-0412"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened store holds %v, want %v", got, want)
	}
}

// TestLoadStateIsStrict: a state file with a misspelled spec or
// snapshot field, or data after the array, is an error on open, as it
// is for -enroll files and POST /v1/modules, rather than a module
// resumed with a zero noise model or a restarted attempt counter.
func TestLoadStateIsStrict(t *testing.T) {
	dir := t.TempDir()
	runToDrain(t, dir, testSpec(300))
	path := filepath.Join(dir, stateFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snapTypo := regexp.MustCompile(`"snapshot":\s*\{`).ReplaceAllString(string(data), `"snapshot": {"host_attemps": 3,`)
	cases := map[string]string{
		"spec typo":     strings.Replace(string(data), `"WeakCellRate"`, `"WeakCelRate"`, 1),
		"snapshot typo": snapTypo,
		"trailing data": string(data) + "{}",
	}
	for name, body := range cases {
		if body == string(data) {
			t.Fatalf("%s: state file unchanged", name)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if d, err := NewDaemon(Config{Workers: 1, LogDir: dir}); err == nil {
			d.Close()
			t.Errorf("%s: NewDaemon resumed %d modules, want an error", name, d.Registry().Len())
		}
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if n := newDaemon(t, Config{Workers: 1, LogDir: dir}).Registry().Len(); n != 1 {
		t.Fatalf("unedited state file: loaded %d modules, want 1", n)
	}
}

// TestEnrollDetectsDistances: a spec without distances enrolls with
// the vendor's true neighbor distances, which PARBOR finds on a twin
// of the module. The module then runs exactly as one whose spec
// carried those distances (byte-identical snapshots, counters that
// reconcile: the twin's commands reach neither), and a daemon resumed
// from the drained state does not detect again.
func TestEnrollDetectsDistances(t *testing.T) {
	cc := coupling.DefaultConfig()
	cc.VulnerableRate = 2e-3
	geoms := []struct {
		vendor            scramble.Vendor
		chips, rows, cols int
	}{
		{scramble.VendorA, 8, 32, 8192},
		{scramble.VendorB, 8, 32, 8192},
		{scramble.VendorC, 8, 32, 8192},
		{scramble.VendorToy, 2, 64, 1024},
	}
	var detecting, explicit []ModuleSpec
	truths := map[string][]int{}
	for _, g := range geoms {
		truth, err := scramble.New(g.vendor)
		if err != nil {
			t.Fatal(err)
		}
		sp := ModuleSpec{
			ID: "detect-" + g.vendor.String(), Vendor: g.vendor.String(),
			Chips: g.chips, Banks: 1, Rows: g.rows, Cols: g.cols, Seed: 7,
			Coupling: cc, Faults: faults.DefaultConfig(),
			Test:      onlinetest.Config{ChunkBits: truth.ChunkBits(), RowsPerEpoch: 8},
			MaxEpochs: 3,
		}
		detecting = append(detecting, sp)
		sp.Test.Distances = truth.Distances()
		explicit = append(explicit, sp)
		truths[sp.ID] = truth.Distances()
	}

	calls := 0
	t.Cleanup(func() { detect = detectDistances })
	detect = func(ctx context.Context, spec ModuleSpec, v scramble.Vendor) ([]int, error) {
		calls++
		return detectDistances(ctx, spec, v)
	}

	dir := t.TempDir()
	d := runToDrain(t, dir, detecting...)
	ref := runToDrain(t, t.TempDir(), explicit...)
	if calls != len(detecting) {
		t.Fatalf("enrolling %d specs without distances ran detection %d times", len(detecting), calls)
	}
	if err := d.Reconcile(); err != nil {
		t.Fatalf("reconcile after detection: %v", err)
	}
	for _, m := range d.Registry().List() {
		if got, want := m.spec.Test.Distances, truths[m.ID()]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: detected distances %v, want %v", m.ID(), got, want)
		}
		if m.Status() != StatusDone {
			t.Errorf("%s: %s after its epochs, want done", m.ID(), m.Status())
		}
		r, _ := ref.Registry().Get(m.ID())
		got, err := m.Snapshot().Marshal()
		if err != nil {
			t.Fatal(err)
		}
		want, err := r.Snapshot().Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: snapshot differs from a module enrolled with the true distances", m.ID())
		}
	}

	resumed := newDaemon(t, Config{Workers: 1, LogDir: dir})
	if calls != len(detecting) {
		t.Errorf("resuming the drained fleet ran detection %d more times", calls-len(detecting))
	}
	for _, m := range resumed.Registry().List() {
		if got, want := m.spec.Test.Distances, truths[m.ID()]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: resumed with distances %v, want %v", m.ID(), got, want)
		}
	}
}

// TestEnrollRefusedWhenDetectionFails: a spec without distances whose
// module has no data-dependent cells gives detection nothing to find,
// and the enrollment is refused with detection's error.
func TestEnrollRefusedWhenDetectionFails(t *testing.T) {
	sp := testSpec(0)
	sp.Test.Distances = nil
	sp.Coupling.VulnerableRate = 0
	sp.Faults = faults.Config{}
	d := newDaemon(t, Config{Workers: 1})
	if _, err := d.Enroll(sp, nil); err == nil || !strings.Contains(err.Error(), "detecting neighbor distances") {
		t.Fatalf("enroll without distances on a module without victims: err = %v, want a detection error", err)
	}
	if n := len(d.Registry().List()); n != 0 {
		t.Errorf("refused enrollment left %d modules registered", n)
	}
}
