// Recursive-walkthrough reproduces the paper's worked example
// (Figures 5, 8, 9 and 10) on the Toy mapping: a 16-bit scrambling
// chunk in which every cell's physical neighbors live at system
// distances ±1 and ±5. It prints the recursion level by level, the
// way Figure 10 tabulates the union of distances.
//
//	go run ./examples/recursive-walkthrough
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"parbor"
)

func main() {
	// The toy mapping of Figure 5: system bits X..X+7 are buffered
	// through two cell arrays with pair swaps, so the neighbors of X
	// end up at X+1 and X+5.
	mapping, err := parbor.NewMapping(parbor.VendorToy)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Figure 5/8 — the toy scrambled mapping")
	fmt.Println("======================================")
	for _, seg := range mapping.Segments() {
		fmt.Printf("  physical array: %v\n", seg)
	}
	l, r, _, _ := mapping.Neighbors(0)
	fmt.Printf("  neighbors of system bit 0: %d and %d (distances %v)\n\n",
		l, r, mapping.Distances())

	// Build a module using this mapping and run the recursion.
	coupling := parbor.DefaultCouplingConfig()
	coupling.VulnerableRate = 5e-3
	mod, err := parbor.NewModule(parbor.ModuleConfig{
		Name:   "Toy1",
		Vendor: parbor.VendorToy,
		Chips:  1,
		// 1024-bit rows: 64 toy chunks per row, so the recursion has
		// four levels (512, 64, 8, 1).
		Geometry: parbor.Geometry{Banks: 1, Rows: 256, Cols: 1024},
		Coupling: coupling,
		Seed:     7,
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

	fmt.Println("Figure 9/10 — the recursion, level by level")
	fmt.Println("===========================================")
	fmt.Printf("victim sample: %d cells tested in parallel, one per row\n\n", res.SampleSize)
	for i, lvl := range res.Levels {
		fmt.Printf("L%d: region size %4d bits, %2d tests\n", i+1, lvl.RegionSize, lvl.Tests)
		dists := make([]int, 0, len(lvl.Frequencies))
		for d := range lvl.Frequencies {
			dists = append(dists, d)
		}
		sort.Ints(dists)
		for _, d := range dists {
			marker := " "
			if contains(lvl.Distances, d) {
				marker = "*" // survived ranking
			}
			fmt.Printf("   distance %+3d: %4d victims %s\n", d, lvl.Frequencies[d], marker)
		}
	}
	fmt.Printf("\nfinal union of distances: %v (the toy mapping's true ±1, ±5)\n", res.Distances)
	fmt.Printf("total recursion tests: %d — versus %d for the naive per-bit linear\n",
		res.RecursionTests, 1024)
	fmt.Printf("search and %d for the exhaustive pairwise search of one row\n",
		1024*1023/2)
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
