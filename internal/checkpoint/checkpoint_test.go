package checkpoint

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"reflect"
	"regexp"
	"testing"

	"parbor/internal/chaos"
	"parbor/internal/coupling"
	"parbor/internal/dram"
	"parbor/internal/faults"
	"parbor/internal/memctl"
	"parbor/internal/onlinetest"
	"parbor/internal/scramble"
)

var distances = []int{-48, -16, -8, 8, 16, 48}

// newModule builds the module under test. The default faults config is
// deliberately ON: VRT and marginal cells draw from the per-chip clock
// and pass counter, which is exactly the state a checkpoint must carry
// for resume to be bit-identical.
func newModule(t *testing.T, seed uint64) *dram.Module {
	t.Helper()
	mod, err := dram.NewModule(dram.ModuleConfig{
		Name:   "ckpt-test",
		Vendor: scramble.VendorA,
		Chips:  2,
		Geometry: dram.Geometry{
			Banks: 1, Rows: 16, Cols: 8192,
		},
		Coupling: coupling.Config{
			VulnerableRate:  2e-3,
			StrongLeftFrac:  0.3,
			StrongRightFrac: 0.3,
			RetentionMinMs:  100,
			RetentionMaxMs:  100,
		},
		Faults: faults.DefaultConfig(),
		Seed:   seed,
	})
	if err != nil {
		t.Fatalf("NewModule: %v", err)
	}
	return mod
}

func newSched(t *testing.T, mod *dram.Module) *onlinetest.Scheduler {
	t.Helper()
	host, err := memctl.NewHost(mod, 0)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	s, err := onlinetest.New(host, onlinetest.Config{Distances: distances, RowsPerEpoch: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func epochs(t *testing.T, s *onlinetest.Scheduler, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := s.RunEpoch(context.Background()); err != nil {
			t.Fatalf("epoch %d: %v", i, err)
		}
	}
}

// TestInterruptResumeBitIdentical is the acceptance property: a sweep
// interrupted at the halfway point and resumed from its snapshot (on a
// freshly built process image) must report exactly the failures of an
// uninterrupted sweep — with the default noise models on, so the
// clocks in the snapshot are actually load-bearing.
func TestInterruptResumeBitIdentical(t *testing.T) {
	const seed = 17
	const total = 8

	straight := newSched(t, newModule(t, seed))
	epochs(t, straight, total)

	// Interrupted process: half the epochs, then serialize the
	// snapshot.
	firstMod := newModule(t, seed)
	first := newSched(t, firstMod)
	epochs(t, first, total/2)
	data, err := Capture(firstMod, seed, first.State()).Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}

	// Resuming process: fresh module from config+seed, clocks applied,
	// scheduler rebuilt from state.
	snap, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	resumedMod := newModule(t, snap.Seed)
	if err := snap.Apply(resumedMod); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	host, err := memctl.NewHost(resumedMod, 0)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	resumed, err := onlinetest.Resume(host, snap.Scheduler)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	epochs(t, resumed, total/2)

	if got, want := resumed.Failures(), straight.Failures(); !reflect.DeepEqual(got, want) {
		t.Errorf("resumed sweep found %d failures, uninterrupted %d — checkpoint is lossy", len(got), len(want))
	}
	if resumed.Tests() != straight.Tests() || resumed.Coverage() != straight.Coverage() {
		t.Errorf("resumed progress %d tests / %.2f coverage, uninterrupted %d / %.2f",
			resumed.Tests(), resumed.Coverage(), straight.Tests(), straight.Coverage())
	}
	if len(straight.Failures()) == 0 {
		t.Fatal("no failures at all; the bit-identity comparison is vacuous")
	}
}

// TestInterruptResumeBitIdenticalVRTHot extends the bit-identity
// property to a config where VRT toggles dominate the failure set.
// This is the regression test for the VRT resume drift: toggle draws
// used to come from one sequential per-pass stream over the currently
// materialized VRT rows, so the resumed process — whose meta cache is
// empty, materializing only the rows its remaining epochs touch — saw
// a different draw order than the uninterrupted run and diverged.
// Keyed per-(pass, row, cell) draws make the materialization history
// invisible.
func TestInterruptResumeBitIdenticalVRTHot(t *testing.T) {
	const seed = 23
	const total = 8
	vrtModule := func(t *testing.T, seed uint64) *dram.Module {
		t.Helper()
		mod, err := dram.NewModule(dram.ModuleConfig{
			Name:     "ckpt-vrt",
			Vendor:   scramble.VendorA,
			Chips:    2,
			Geometry: dram.Geometry{Banks: 1, Rows: 16, Cols: 8192},
			Coupling: coupling.Config{VulnerableRate: 0, RetentionMinMs: 1, RetentionMaxMs: 1},
			Faults:   faults.Config{VRTRate: 2e-3, VRTToggleProb: 0.5},
			Seed:     seed,
		})
		if err != nil {
			t.Fatalf("NewModule: %v", err)
		}
		return mod
	}

	straight := newSched(t, vrtModule(t, seed))
	epochs(t, straight, total)

	firstMod := vrtModule(t, seed)
	first := newSched(t, firstMod)
	epochs(t, first, total/2)
	data, err := Capture(firstMod, seed, first.State()).Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}

	snap, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	resumedMod := vrtModule(t, snap.Seed)
	if err := snap.Apply(resumedMod); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	host, err := memctl.NewHost(resumedMod, 0)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	resumed, err := onlinetest.Resume(host, snap.Scheduler)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	epochs(t, resumed, total/2)

	if got, want := resumed.Failures(), straight.Failures(); !reflect.DeepEqual(got, want) {
		t.Errorf("VRT-hot resumed sweep found %d failures, uninterrupted %d — VRT draws depend on materialization history", len(got), len(want))
	}
	if resumed.Epochs() != straight.Epochs() {
		t.Errorf("resumed epoch count %d, uninterrupted %d", resumed.Epochs(), straight.Epochs())
	}
	if len(straight.Failures()) == 0 {
		t.Fatal("no VRT failures at all; the comparison is vacuous")
	}
}

// TestInterruptResumeWithChaosPlane: with HostAttempts captured and
// restored, the bit-identity guarantee extends to runs with a fault
// plane attached — the resumed host continues the attempt counter the
// plane keys its draws on, so it replays the uninterrupted run's
// exact fault schedule.
func TestInterruptResumeWithChaosPlane(t *testing.T) {
	const seed = 17
	const total = 8
	planeCfg := chaos.Config{Seed: 11, WriteFaultProb: 0.004, ReadFaultProb: 0.004}
	mk := func(t *testing.T, mod *dram.Module) (*memctl.Host, *onlinetest.Scheduler) {
		t.Helper()
		plane, err := chaos.New(planeCfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		host, err := memctl.NewHostWithConfig(mod, memctl.HostConfig{Faults: plane})
		if err != nil {
			t.Fatalf("NewHost: %v", err)
		}
		s, err := onlinetest.New(host, onlinetest.Config{Distances: distances, RowsPerEpoch: 8, MaxRetries: 8})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return host, s
	}

	_, straight := mk(t, newModule(t, seed))
	epochs(t, straight, total)

	firstMod := newModule(t, seed)
	firstHost, first := mk(t, firstMod)
	epochs(t, first, total/2)
	snap := Capture(firstMod, seed, first.State())
	snap.HostAttempts = firstHost.Attempts()
	data, err := snap.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}

	snap, err = Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	resumedMod := newModule(t, snap.Seed)
	if err := snap.Apply(resumedMod); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	resumedHost, _ := mk(t, resumedMod)
	if err := resumedHost.SetAttempts(snap.HostAttempts); err != nil {
		t.Fatalf("SetAttempts: %v", err)
	}
	resumed, err := onlinetest.Resume(resumedHost, snap.Scheduler)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	epochs(t, resumed, total/2)

	if straight.Retries() == 0 {
		t.Fatal("plane injected no transient faults; the attempt-counter comparison is vacuous")
	}
	if resumed.Retries() != straight.Retries() {
		t.Errorf("resumed run consumed %d retries, uninterrupted %d — fault schedules differ", resumed.Retries(), straight.Retries())
	}
	if got, want := resumed.Failures(), straight.Failures(); !reflect.DeepEqual(got, want) {
		t.Errorf("chaos resumed sweep found %d failures, uninterrupted %d", len(got), len(want))
	}
	if len(straight.Failures()) == 0 {
		t.Fatal("no failures at all; the comparison is vacuous")
	}
}

func TestSnapshotValidation(t *testing.T) {
	mod := newModule(t, 5)
	s := newSched(t, mod)
	epochs(t, s, 1)
	snap := Capture(mod, 5, s.State())

	if err := snap.Validate(mod); err != nil {
		t.Fatalf("snapshot of mod does not validate against mod: %v", err)
	}

	wrongSchema := *snap
	wrongSchema.Schema = "parbor/checkpoint/v0"
	if err := wrongSchema.Validate(mod); err == nil {
		t.Error("wrong schema accepted")
	}

	otherMod := newModule(t, 6) // same geometry, same name — ident matches
	if err := snap.Validate(otherMod); err != nil {
		t.Errorf("same-ident module rejected: %v", err)
	}

	short := *snap
	short.Clocks = snap.Clocks[:1]
	if err := short.Validate(mod); err == nil {
		t.Error("truncated clock list accepted")
	}

	negative := *snap
	negative.Clocks = append([]Clock(nil), snap.Clocks...)
	negative.Clocks[0].NowMs = -1
	if err := negative.Validate(mod); err == nil {
		t.Error("negative clock accepted")
	}

	negAttempts := *snap
	negAttempts.HostAttempts = -1
	if err := negAttempts.Validate(mod); err == nil {
		t.Error("negative host attempt counter accepted")
	}

	smaller, err := dram.NewModule(dram.ModuleConfig{
		Name:     "ckpt-test",
		Vendor:   scramble.VendorA,
		Chips:    2,
		Geometry: dram.Geometry{Banks: 1, Rows: 8, Cols: 8192},
		Coupling: coupling.Config{VulnerableRate: 0, RetentionMinMs: 1, RetentionMaxMs: 1},
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Validate(smaller); err == nil {
		t.Error("module with different geometry accepted")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	for name, data := range map[string]string{
		"empty":        "",
		"unparsable":   "not json",
		"wrong schema": `{"schema":"parbor/other/v9"}`,
	} {
		if _, err := Unmarshal([]byte(data)); err == nil {
			t.Errorf("%s snapshot accepted", name)
		}
	}
}

// TestUnmarshalIsStrict: a snapshot with a misspelled field or data
// after the object is rejected rather than resumed with a zero value.
func TestUnmarshalIsStrict(t *testing.T) {
	mod := newModule(t, 5)
	data, err := Capture(mod, 5, newSched(t, mod).State()).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(data); err != nil {
		t.Fatalf("Unmarshal of a marshaled snapshot: %v", err)
	}
	typo := bytes.Replace(data, []byte("{"), []byte(`{"host_attemps": 3,`), 1)
	if _, err := Unmarshal(typo); err == nil {
		t.Error("snapshot with unknown field host_attemps accepted")
	}
	if _, err := Unmarshal(append(data, []byte("{}")...)); err == nil {
		t.Error("snapshot followed by a second object accepted")
	}

	// The failure sets are strict too: only the exact bytes
	// memctl.AppendAddrs writes for a set decode. list encodes a cell
	// count and then raw zigzag deltas, valid or not.
	list := func(count uint64, deltas ...int64) string {
		p := binary.AppendUvarint(nil, count)
		for _, d := range deltas {
			p = binary.AppendUvarint(p, uint64(d)<<1^uint64(d>>63))
		}
		return base64.StdEncoding.EncodeToString(p)
	}
	everSeen := regexp.MustCompile(`"ever_seen": "[^"]*"`)
	if !everSeen.Match(data) {
		t.Fatal("marshaled snapshot has no ever_seen string")
	}
	withEverSeen := func(text string) []byte {
		return everSeen.ReplaceAll(data, []byte(`"ever_seen": "`+text+`"`))
	}
	snap, err := Unmarshal(withEverSeen(list(2, 0, 0, 3, 1, 1, 0, -3, 2)))
	if err != nil {
		t.Fatalf("canonical two-cell list rejected: %v", err)
	}
	if want := (memctl.AddrList{{Row: 3, Col: 1}, {Chip: 1, Col: 3}}); !reflect.DeepEqual(snap.Scheduler.EverSeen, want) {
		t.Fatalf("decoded %v, want %v", snap.Scheduler.EverSeen, want)
	}
	bad := map[string]string{
		"unsorted":       list(2, 0, 0, 3, 1, 0, 0, -1, 0),
		"duplicated":     list(2, 0, 0, 3, 1, 0, 0, 0, 0),
		"chip range":     list(1, 1<<15, 0, 0, 0),
		"row range":      list(1, 0, 0, -1<<31-1, 0),
		"truncated":      list(2, 0, 0, 3, 1),
		"short cell":     list(1, 0, 0, 3),
		"trailing bytes": list(1, 0, 0, 3, 1, 0),
		"empty":          "",
		"not base64":     "AQ!A",
		"line break":     `AQAA\nBgI=`,
	}
	for name, text := range bad {
		if _, err := Unmarshal(withEverSeen(text)); err == nil {
			t.Errorf("%s ever_seen %q accepted", name, text)
		}
	}
}
