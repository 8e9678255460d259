// Quickstart: simulate a vendor-A DRAM module, run the full PARBOR
// pipeline, and print what it found.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"parbor"
)

func main() {
	// A module of 8 simulated chips with vendor A's internal address
	// scrambling and a realistic population of coupling-vulnerable
	// cells. The seed pins the process variation.
	coupling := parbor.DefaultCouplingConfig()
	coupling.VulnerableRate = 2e-3 // denser victims for the scaled-down array

	mod, err := parbor.NewModule(parbor.ModuleConfig{
		Name:     "A1",
		Vendor:   parbor.VendorA,
		Geometry: parbor.Geometry{Banks: 1, Rows: 256, Cols: 8192},
		Coupling: coupling,
		Faults:   parbor.DefaultFaultsConfig(),
		Seed:     42,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The host is the system-level test interface: write rows, wait a
	// retention interval, read back, compare. PARBOR sees nothing else.
	host, err := parbor.NewHost(mod, 0)
	if err != nil {
		log.Fatal(err)
	}
	tester, err := parbor.NewTester(host, parbor.DetectConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// Run discovery, recursive neighbor detection, and the full-chip
	// neighbor-aware test.
	report, err := tester.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("PARBOR quickstart")
	fmt.Println("=================")
	fmt.Printf("Detected neighbor distances: %v\n", report.Neighbor.Distances)
	fmt.Printf("  (vendor A scrambles so that a cell's physical neighbors sit\n")
	fmt.Printf("   ±8, ±16 or ±48 bit addresses away — not at ±1.)\n\n")
	fmt.Printf("Tests used: %d discovery + %d recursion + %d full-chip = %d total\n",
		report.Neighbor.DiscoveryTests, report.Neighbor.RecursionTests,
		report.FullChipTests, report.TotalTests())
	fmt.Printf("Data-dependent failures uncovered: %d\n\n", len(report.AllFailures))

	// Compare with the naive projections the paper's Appendix makes.
	ttm := parbor.NewTestTimeModel()
	pairwise, err := ttm.NaiveSearch(8192, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("A naive pairwise O(n^2) search of one 8K row would take %.0f days;\n",
		pairwise.Hours()/24)
	paperGeom := parbor.Geometry{Banks: 8, Rows: 32768, Cols: 8192}
	fmt.Printf("this whole PARBOR run would take %v on a real 2GB module.\n",
		ttm.ParborTime(paperGeom, 8, report.TotalTests()).Round(1e8))
}
