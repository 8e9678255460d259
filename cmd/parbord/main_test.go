package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parbor/internal/coupling"
	"parbor/internal/faults"
	"parbor/internal/fleet"
	"parbor/internal/onlinetest"
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
	if err := run(context.Background(), options{resume: true}); err == nil {
		t.Error("-resume without -state accepted")
	}
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
// small fleet from a file, run it to idle with state and log
// directories, then resume from the persisted state and verify the
// second incarnation finds every module already done.
func TestRunToIdleAndResume(t *testing.T) {
	stateDir := filepath.Join(t.TempDir(), "state")
	logDir := filepath.Join(t.TempDir(), "log")
	enroll := writeEnrollFile(t, 2)

	err := run(context.Background(), options{
		workers:   2,
		stateDir:  stateDir,
		enroll:    enroll,
		runToIdle: true,
		logDir:    logDir,
		logRetain: 4,
	})
	if err != nil {
		t.Fatalf("run to idle: %v", err)
	}

	states, err := os.ReadDir(stateDir)
	if err != nil || len(states) != 2 {
		t.Fatalf("state dir after drain: %v (%d entries, want 2)", err, len(states))
	}
	for _, e := range states {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("state dir holds temp debris %s", e.Name())
		}
	}
	segs, err := os.ReadDir(logDir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("log dir after drain: %v (%d entries)", err, len(segs))
	}

	// Second incarnation: resume from state, run to idle again. Every
	// module is at its epoch budget, so this quiesces immediately —
	// but it must still load all entries and persist them back.
	err = run(context.Background(), options{
		stateDir:  stateDir,
		resume:    true,
		runToIdle: true,
	})
	if err != nil {
		t.Fatalf("resume run: %v", err)
	}
	states, err = os.ReadDir(stateDir)
	if err != nil || len(states) != 2 {
		t.Fatalf("state dir after resume: %v (%d entries, want 2)", err, len(states))
	}
}

// TestRunWithDiskChaos runs the same fleet with the deterministic
// fault injector wired under all durable state. The daemon must
// complete the run — degrading and recovering as faults land — and
// still leave a loadable state directory.
func TestRunWithDiskChaos(t *testing.T) {
	stateDir := filepath.Join(t.TempDir(), "state")
	logDir := filepath.Join(t.TempDir(), "log")

	err := run(context.Background(), options{
		workers:   2,
		stateDir:  stateDir,
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
	d, err := fleet.NewDaemon(fleet.Config{StateDir: stateDir})
	if err != nil {
		t.Fatalf("NewDaemon: %v", err)
	}
	defer d.Close()
	if n, err := d.LoadState(); err != nil || n != 2 {
		t.Fatalf("LoadState after chaos run: %v (%d modules, want 2)", err, n)
	}
}
