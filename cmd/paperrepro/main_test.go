package main

import (
	"context"
	"io"
	"testing"

	"parbor/internal/exp"
	"parbor/internal/obs"
	"parbor/internal/sim"
)

func tinyOpts() (exp.Options, exp.Fig16Options) {
	return exp.Options{RowsPerChip: 128, Chips: 1, ModulesPerVendor: 1, Seed: 42},
		exp.Fig16Options{Workloads: 1, Cores: 2, SimNs: 5e5, Seed: 42,
			Densities: []sim.Density{sim.Density16Gbit}}
}

func TestRunWithCollectorReconciles(t *testing.T) {
	o, fo := tinyOpts()
	col := obs.NewCollector()
	o.Recorder = col
	if err := run(context.Background(), io.Discard, "table1", o, fo, col); err != nil {
		t.Fatalf("run(table1): %v", err)
	}
	rep := col.Snapshot("paperrepro-test")
	if err := rep.Reconcile(); err != nil {
		t.Fatalf("report does not reconcile: %v", err)
	}
	if rep.Commands["activate"] == 0 {
		t.Fatal("no DRAM commands recorded for an instrumented table1 run")
	}
	if rep.Figures["table1_tests_A"] != 90 || rep.Figures["table1_tests_B"] != 66 || rep.Figures["table1_tests_C"] != 90 {
		t.Fatalf("table1 figures %v, want 90/66/90", rep.Figures)
	}
	if len(rep.Stages) != 1 || rep.Stages[0].Name != "table1" {
		t.Fatalf("stages %v, want one table1 stage", rep.Stages)
	}
}

// TestRunFig16Figures: the fig16 stage reports each density's three
// headline figures of the refresh study.
func TestRunFig16Figures(t *testing.T) {
	o, fo := tinyOpts()
	col := obs.NewCollector()
	if err := run(context.Background(), io.Discard, "fig16", o, fo, col); err != nil {
		t.Fatalf("run(fig16): %v", err)
	}
	rep := col.Snapshot("paperrepro-test")
	if err := rep.Reconcile(); err != nil {
		t.Fatalf("report does not reconcile: %v", err)
	}
	for _, name := range []string{"fig16_dcref_vs_base_pct_16Gbit", "fig16_dcref_vs_raidr_pct_16Gbit", "fig16_refresh_reduction_pct_16Gbit"} {
		if _, ok := rep.Figures[name]; !ok {
			t.Errorf("figure %s missing from %v", name, rep.Figures)
		}
	}
	if len(rep.Figures) != 3 {
		t.Errorf("figures %v, want exactly three", rep.Figures)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	o, fo := tinyOpts()
	if err := run(context.Background(), io.Discard, "bogus", o, fo, nil); err == nil {
		t.Error("unknown experiment accepted")
	}
}
