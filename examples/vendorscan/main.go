// Vendorscan plays the role of a system integrator qualifying DIMMs
// from unknown manufacturers: for each module it learns the scrambled
// neighbor locations from scratch, checks them against ground truth,
// and reports the test budget — demonstrating the paper's point that
// one technique handles any vendor's mapping (Section 1).
//
//	go run ./examples/vendorscan
package main

import (
	"context"
	"fmt"
	"log"
	"reflect"

	"parbor"
)

func main() {
	fmt.Println("Scanning modules from three (simulated) vendors")
	fmt.Println("===============================================")
	coupling := parbor.DefaultCouplingConfig()
	coupling.VulnerableRate = 2e-3

	for i, vendor := range parbor.Vendors() {
		mod, err := parbor.NewModule(parbor.ModuleConfig{
			Name:     fmt.Sprintf("%s1", vendor),
			Vendor:   vendor,
			Chips:    2,
			Geometry: parbor.Geometry{Banks: 1, Rows: 256, Cols: 8192},
			Coupling: coupling,
			Faults:   parbor.DefaultFaultsConfig(),
			Seed:     100 + uint64(i),
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
		res, err := tester.DetectNeighborsCtx(context.Background())
		if err != nil {
			log.Fatalf("module %s: %v", mod.Name(), err)
		}

		// Ground truth is available here because the chips are
		// simulated; a real integrator would not have it — which is
		// the whole point of PARBOR.
		truth, err := parbor.NewMapping(vendor)
		if err != nil {
			log.Fatal(err)
		}
		verdict := "MISMATCH"
		if reflect.DeepEqual(res.Distances, truth.Distances()) {
			verdict = "exact match"
		}
		fmt.Printf("\nModule %s:\n", mod.Name())
		fmt.Printf("  detected neighbor distances: %v\n", res.Distances)
		fmt.Printf("  ground-truth mapping:        %v  -> %s\n", truth.Distances(), verdict)
		fmt.Printf("  tests: %d discovery + %d recursion (vs 8192 for a linear scan)\n",
			res.DiscoveryTests, res.RecursionTests)
	}

	fmt.Println("\nA module with no scrambling, for contrast:")
	mod, err := parbor.NewModule(parbor.ModuleConfig{
		Name:     "Linear1",
		Vendor:   parbor.VendorLinear,
		Chips:    1,
		Geometry: parbor.Geometry{Banks: 1, Rows: 256, Cols: 8192},
		Coupling: coupling,
		Seed:     9,
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
	res, err := tester.DetectNeighborsCtx(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  detected distances: %v (adjacent system addresses ARE physical neighbors)\n",
		res.Distances)
}
