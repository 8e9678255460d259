// Mitigation-planner demonstrates the downstream use the paper's
// introduction motivates: detection enables cheap mitigation. It runs
// the full pipeline — detect neighbor locations, uncover failures,
// classify victims by coupling class — and then plans spare-resource
// mitigation twice: once treating every failure as hard, and once
// letting a DC-REF-style refresh policy own the coupling-driven ones.
//
//	go run ./examples/mitigation-planner
package main

import (
	"context"
	"fmt"
	"log"

	"parbor"
)

func main() {
	coupling := parbor.DefaultCouplingConfig()
	coupling.VulnerableRate = 2e-3
	mod, err := parbor.NewModule(parbor.ModuleConfig{
		Name:     "C1",
		Vendor:   parbor.VendorC,
		Chips:    2,
		Geometry: parbor.Geometry{Banks: 1, Rows: 256, Cols: 8192},
		Coupling: coupling,
		Faults:   parbor.DefaultFaultsConfig(),
		Seed:     5,
	})
	if err != nil {
		log.Fatal(err)
	}
	host, err := parbor.NewHost(mod, 0)
	if err != nil {
		log.Fatal(err)
	}
	tester, err := parbor.NewTester(host, parbor.DetectConfig{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Step 1: detect neighbor locations and failures")
	report, err := tester.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  distances %v, %d failures, %d tests\n\n",
		report.Neighbor.Distances, len(report.AllFailures), report.TotalTests())

	fmt.Println("Step 2: classify the victim sample by coupling class")
	victims, _, _, err := tester.DiscoverVictims(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	classified, probes, err := tester.ClassifyVictims(context.Background(), victims, report.Neighbor.Distances)
	if err != nil {
		log.Fatal(err)
	}
	counts := map[parbor.CouplingKind]int{}
	for _, c := range classified {
		counts[c.Kind]++
	}
	fmt.Printf("  %d probe tests: %d strongly coupled, %d weakly coupled, %d content-independent, %d unknown\n\n",
		probes, counts[parbor.KindSingle], counts[parbor.KindPair],
		counts[parbor.KindContentIndependent], counts[parbor.KindUnknown])

	fmt.Println("Step 3: plan mitigation under a fixed spare budget")
	failures := make([]parbor.BitAddr, 0, len(report.AllFailures))
	for a := range report.AllFailures {
		failures = append(failures, a)
	}
	budget := parbor.RepairBudget{SpareRows: 16, ECCBitsPerWord: 1, RemapEntries: 128}

	plain, err := parbor.PlanRepair(failures, budget, parbor.RepairOptions{})
	if err != nil {
		log.Fatal(err)
	}
	informed, err := parbor.PlanRepair(failures, budget, parbor.RepairOptions{
		RefreshManaged: parbor.RefreshManagedSet(classified),
	})
	if err != nil {
		log.Fatal(err)
	}

	show := func(name string, p *parbor.RepairPlan) {
		fmt.Printf("  %-28s spare rows %2d, ECC-covered %5d, remapped %3d, refresh-managed %4d, uncovered %4d (coverage %.1f%%)\n",
			name, len(p.SparedRows), len(p.ECCCovered), len(p.Remapped),
			len(p.RefreshManaged), len(p.Uncovered), 100*p.CoverageFraction())
	}
	show("all failures hard:", plain)
	show("coupling handled by DC-REF:", informed)
	fmt.Println("\nClassification lets the refresh policy own the coupling victims,")
	fmt.Println("so the spare rows, ECC headroom and remap entries stretch further —")
	fmt.Println("the quantitative version of the paper's 'detection enables better")
	fmt.Println("scaling' argument (Section 1).")
}
