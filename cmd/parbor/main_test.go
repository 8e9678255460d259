package main

import (
	"context"
	"strings"
	"testing"
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
