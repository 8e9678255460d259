package parbor_test

import (
	"context"
	"fmt"
	"log"
	"reflect"
	"testing"

	"parbor"
)

// TestFacadeEndToEnd drives the complete public API: module, host,
// tester, report, and the refresh simulation.
func TestFacadeEndToEnd(t *testing.T) {
	cc := parbor.DefaultCouplingConfig()
	cc.VulnerableRate = 2e-3
	mod, err := parbor.NewModule(parbor.ModuleConfig{
		Name:     "B1",
		Vendor:   parbor.VendorB,
		Chips:    1,
		Geometry: parbor.Geometry{Banks: 1, Rows: 256, Cols: 8192},
		Coupling: cc,
		Faults:   parbor.DefaultFaultsConfig(),
		Seed:     7,
	})
	if err != nil {
		t.Fatalf("NewModule: %v", err)
	}
	host, err := parbor.NewHost(mod, 0)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	tester, err := parbor.NewTester(host, parbor.DetectConfig{})
	if err != nil {
		t.Fatalf("NewTester: %v", err)
	}
	report, err := tester.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := []int{-64, -1, 1, 64}; !reflect.DeepEqual(report.Neighbor.Distances, want) {
		t.Errorf("distances = %v, want %v", report.Neighbor.Distances, want)
	}
	if report.TotalTests() != 10+66+32 {
		t.Errorf("budget = %d, want 108", report.TotalTests())
	}
	if len(report.AllFailures) == 0 {
		t.Error("no failures found")
	}

	res, err := parbor.RunSim(parbor.SimConfig{
		Workload: parbor.Workloads(1, 2, 1)[0],
		Policy:   parbor.RefreshDCREF,
		Density:  parbor.Density16Gbit,
		SimNs:    5e5,
		Seed:     1,
	})
	if err != nil {
		t.Fatalf("RunSim: %v", err)
	}
	if len(res.IPC) != 2 || res.Refreshes == 0 {
		t.Errorf("degenerate sim result: %+v", res)
	}
}

func TestFacadeListsAndDefaults(t *testing.T) {
	if got := len(parbor.Vendors()); got != 3 {
		t.Errorf("Vendors() = %d entries, want 3", got)
	}
	if got := len(parbor.SPECApps()); got != 17 {
		t.Errorf("SPECApps() = %d entries, want 17", got)
	}
	if got := len(parbor.RefreshKinds()); got != 3 {
		t.Errorf("RefreshKinds() = %d entries, want 3", got)
	}
	if err := parbor.DefaultCouplingConfig().Validate(); err != nil {
		t.Errorf("DefaultCouplingConfig invalid: %v", err)
	}
	if err := parbor.DefaultFaultsConfig().Validate(); err != nil {
		t.Errorf("DefaultFaultsConfig invalid: %v", err)
	}
	g := parbor.ExperimentGeometry()
	if g.Cols != 8192 {
		t.Errorf("ExperimentGeometry cols = %d, want 8192", g.Cols)
	}
	if parbor.DDR3_1600().TRCD != 13.75 {
		t.Error("DDR3_1600 timing wrong")
	}
}

// ExampleNewMapping shows how to inspect a vendor's ground-truth
// scrambling (available only because the chips are simulated).
func ExampleNewMapping() {
	m, err := parbor.NewMapping(parbor.VendorA)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(m.Distances())
	left, right, _, _ := m.Neighbors(8)
	fmt.Println(left, right)
	// Output:
	// [-48 -16 -8 8 16 48]
	// 0 24
}

// ExampleNewTestTimeModel reproduces the Appendix's headline numbers.
func ExampleNewTestTimeModel() {
	m := parbor.NewTestTimeModel()
	pairwise, err := m.NaiveSearch(8192, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("O(n^2): %.0f days\n", pairwise.Hours()/24)
	fmt.Printf("O(n^3): %.0f years\n", m.NaiveSearchYears(8192, 3))
	// Output:
	// O(n^2): 50 days
	// O(n^3): 1116 years
}
