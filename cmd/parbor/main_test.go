package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestRunSmallModule(t *testing.T) {
	err := run(context.Background(), options{
		vendorName:    "toy",
		rows:          64,
		chips:         1,
		seed:          7,
		classify:      true,
		showMapping:   true,
		compareRandom: true,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunRetentionProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("retention sweep")
	}
	err := run(context.Background(), options{
		vendorName: "B",
		rows:       64,
		chips:      1,
		seed:       9,
		profileRet: true,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRunCancelled checks the pipeline honors an already-cancelled
// context instead of running to completion.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, options{vendorName: "toy", rows: 64, chips: 1, seed: 7})
	if err == nil {
		t.Fatal("run with cancelled ctx succeeded")
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("run error %v does not mention cancellation", err)
	}
}

// TestRunOnlineCheckpointResume exercises the CLI's full
// interrupt/resume story: N epochs straight through must produce the
// same failure checksum as N/2 epochs, a checkpoint, and N/2 resumed
// epochs. The checksum lines printed by onlineEpochs are compared via
// the scheduler state embedded in the final checkpoints.
func TestRunOnlineCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.json")
	half := filepath.Join(dir, "half.json")
	resumed := filepath.Join(dir, "resumed.json")

	base := options{vendorName: "toy", rows: 64, chips: 2, seed: 7, timeout: time.Minute}

	// Uninterrupted: 6 epochs.
	opts := base
	opts.online = 6
	opts.checkpoint = full
	if err := run(context.Background(), opts); err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	// Interrupted: 3 epochs + checkpoint, then resume for 3 more.
	opts = base
	opts.online = 3
	opts.checkpoint = half
	if err := run(context.Background(), opts); err != nil {
		t.Fatalf("first half: %v", err)
	}
	opts = options{resume: half, online: 3, checkpoint: resumed}
	if err := run(context.Background(), opts); err != nil {
		t.Fatalf("resumed half: %v", err)
	}

	a, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("resumed checkpoint differs from uninterrupted one:\n--- full ---\n%s\n--- resumed ---\n%s", a, b)
	}
}
