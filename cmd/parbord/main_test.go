package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"parbor/internal/coupling"
	"parbor/internal/faults"
	"parbor/internal/fleet"
	"parbor/internal/onlinetest"
	"parbor/internal/scramble"
)

// writeEnrollFile writes a JSON enrollment array of n tiny modules and
// returns its path.
func writeEnrollFile(t *testing.T, n int) string {
	t.Helper()
	var entries []fleet.StateEntry
	for i := 0; i < n; i++ {
		entries = append(entries, fleet.StateEntry{
			Schema: fleet.StateSchema,
			Spec: fleet.ModuleSpec{
				ID:     "smoke-" + string(rune('a'+i)),
				Vendor: "toy",
				Chips:  2,
				Banks:  1,
				Rows:   8,
				Cols:   64,
				Seed:   uint64(7000 + i),
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
				MaxEpochs: 3,
			},
		})
	}
	return writeEntries(t, entries)
}

// writeEntries writes state entries as an -enroll file and returns its
// path.
func writeEntries(t *testing.T, entries []fleet.StateEntry) string {
	t.Helper()
	data, err := json.Marshal(entries)
	if err != nil {
		t.Fatalf("marshal enroll file: %v", err)
	}
	path := filepath.Join(t.TempDir(), "fleet.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write enroll file: %v", err)
	}
	return path
}

func TestRunValidation(t *testing.T) {
	if err := run(context.Background(), options{enroll: filepath.Join(t.TempDir(), "nope.json"), runToIdle: true}); err == nil {
		t.Error("missing enroll file accepted")
	}
	if err := run(context.Background(), options{chaosSeed: 1, chaosProb: 2, runToIdle: true}); err == nil {
		t.Error("out-of-range -diskchaos-prob accepted")
	}
}

// TestEnrollFileIsStrict: a misspelled spec field in an -enroll file
// is an error, as it is for POST /v1/modules, rather than a module
// enrolled with a zero noise model.
func TestEnrollFileIsStrict(t *testing.T) {
	data, err := os.ReadFile(writeEnrollFile(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	typo := strings.Replace(string(data), `"WeakCellRate"`, `"WeakCelRate"`, 1)
	if typo == string(data) {
		t.Fatal("enroll file has no WeakCellRate field to misspell")
	}
	path := filepath.Join(t.TempDir(), "typo.json")
	if err := os.WriteFile(path, []byte(typo), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), options{enroll: path, runToIdle: true}); err == nil || !strings.Contains(err.Error(), "WeakCelRate") {
		t.Errorf("enroll file with a misspelled field: err = %v, want an unknown-field error", err)
	}
}

// TestRunToIdleAndResume is the daemon's end-to-end smoke: enroll a
// small fleet from a file, run it to idle with a log directory, then
// run again on the same directory and verify the second incarnation
// resumes every module, already done, and persists them back.
func TestRunToIdleAndResume(t *testing.T) {
	logDir := filepath.Join(t.TempDir(), "log")
	enroll := writeEnrollFile(t, 2)

	err := run(context.Background(), options{
		workers:   2,
		enroll:    enroll,
		runToIdle: true,
		logDir:    logDir,
		logRetain: 4,
	})
	if err != nil {
		t.Fatalf("run to idle: %v", err)
	}
	files, err := os.ReadDir(logDir)
	if err != nil || len(files) < 2 {
		t.Fatalf("log dir after drain: %v (%d entries, want segments and the state file)", err, len(files))
	}
	for _, e := range files {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("log dir holds temp debris %s", e.Name())
		}
	}
	loaded(t, logDir, 2)

	// Second incarnation: every module is at its epoch budget, so this
	// quiesces immediately — but it must still load the whole fleet
	// and persist it back.
	if err := run(context.Background(), options{logDir: logDir, runToIdle: true}); err != nil {
		t.Fatalf("resume run: %v", err)
	}
	loaded(t, logDir, 2)
}

// loaded opens a daemon on logDir with the real filesystem and checks
// that it resumes want modules, all done.
func loaded(t *testing.T, logDir string, want int) {
	t.Helper()
	d, err := fleet.NewDaemon(fleet.Config{LogDir: logDir})
	if err != nil {
		t.Fatalf("NewDaemon: %v", err)
	}
	defer d.Close()
	if got := d.Registry().Len(); got != want {
		t.Fatalf("log dir resumes %d modules, want %d", got, want)
	}
	for _, m := range d.Registry().List() {
		if m.Status() != fleet.StatusDone {
			t.Errorf("module %s resumed as %s, want done", m.ID(), m.Status())
		}
	}
}

// TestRunWithDiskChaos runs the same fleet with the deterministic
// fault injector wired under all durable state. The daemon must
// complete the run — degrading and recovering as faults land — and
// still leave a log directory that resumes the whole fleet.
func TestRunWithDiskChaos(t *testing.T) {
	logDir := filepath.Join(t.TempDir(), "log")

	err := run(context.Background(), options{
		workers:   2,
		enroll:    writeEnrollFile(t, 2),
		runToIdle: true,
		logDir:    logDir,
		chaosSeed: 41,
		chaosProb: 0.02,
	})
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	// The post-crash contract: whatever survived must be loadable with
	// a clean filesystem.
	loaded(t, logDir, 2)
}

// TestRunDrainHalfwayAndResume: a module enrolled without distances
// detects them, and a sweep drained halfway and resumed from its state
// entry ends byte-identical to one run straight through. Run A sweeps 6
// epochs; run B sweeps 3 and drains; run C enrolls B's drained entry
// with its budget raised to 6 into a fresh log directory. A's and C's
// fleet-state.json must be the same bytes: same detected distances,
// same clocks, same failure sets.
func TestRunDrainHalfwayAndResume(t *testing.T) {
	cc := coupling.DefaultConfig()
	cc.VulnerableRate = 2e-3
	entry := func(maxEpochs int) fleet.StateEntry {
		return fleet.StateEntry{Schema: fleet.StateSchema, Spec: fleet.ModuleSpec{
			ID: "toy1", Vendor: "toy", Chips: 2, Banks: 1, Rows: 64, Cols: 1024, Seed: 7,
			Coupling: cc, Faults: faults.DefaultConfig(),
			Test:      onlinetest.Config{ChunkBits: 16},
			MaxEpochs: maxEpochs,
		}}
	}
	runDir := func(enroll string) string {
		t.Helper()
		dir := filepath.Join(t.TempDir(), "log")
		if err := run(context.Background(), options{enroll: enroll, runToIdle: true, logDir: dir}); err != nil {
			t.Fatalf("run to idle: %v", err)
		}
		return dir
	}
	readState := func(dir string) ([]byte, []fleet.StateEntry) {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, "fleet-state.json"))
		if err != nil {
			t.Fatal(err)
		}
		var entries []fleet.StateEntry
		if err := json.Unmarshal(data, &entries); err != nil || len(entries) != 1 {
			t.Fatalf("fleet-state.json: %d entries, err %v; want 1", len(entries), err)
		}
		return data, entries
	}

	full, fullEntries := readState(runDir(writeEntries(t, []fleet.StateEntry{entry(6)})))
	_, half := readState(runDir(writeEntries(t, []fleet.StateEntry{entry(3)})))
	if got := half[0].Snapshot.Scheduler.Epochs; got != 3 {
		t.Fatalf("halfway entry ran %d epochs, want 3", got)
	}
	half[0].Spec.MaxEpochs = 6
	resumed, _ := readState(runDir(writeEntries(t, half)))

	if !bytes.Equal(full, resumed) {
		t.Fatalf("resumed fleet state differs from the uninterrupted one:\n--- full ---\n%s\n--- resumed ---\n%s", full, resumed)
	}
	st := fullEntries[0].Snapshot.Scheduler
	truth, err := scramble.New(scramble.VendorToy)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{-5, -1, 1, 5}; !reflect.DeepEqual(st.Config.Distances, want) || !reflect.DeepEqual(truth.Distances(), want) {
		t.Errorf("snapshot distances %v, true %v; want %v", st.Config.Distances, truth.Distances(), want)
	}
	if st.Epochs != 6 || len(st.EverSeen) == 0 {
		t.Errorf("uninterrupted sweep: %d epochs, %d failures; want 6 epochs and some failures", st.Epochs, len(st.EverSeen))
	}
}
