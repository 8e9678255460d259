// Online-monitor demonstrates in-field testing, the deployment
// setting the paper targets: a live system whose DRAM holds real data
// keeps testing itself for data-dependent failures, a few rows per
// epoch, without corrupting a single application bit.
//
//	go run ./examples/online-monitor
package main

import (
	"context"
	"fmt"
	"log"

	"parbor"
)

const rows = 64

func main() {
	coupling := parbor.DefaultCouplingConfig()
	coupling.VulnerableRate = 2e-3
	mod, err := parbor.NewModule(parbor.ModuleConfig{
		Name:     "A1",
		Vendor:   parbor.VendorA,
		Chips:    1,
		Geometry: parbor.Geometry{Banks: 1, Rows: rows, Cols: 8192},
		Coupling: coupling,
		Faults:   parbor.DefaultFaultsConfig(),
		Seed:     23,
	})
	if err != nil {
		log.Fatal(err)
	}
	host, err := parbor.NewHost(mod, 0)
	if err != nil {
		log.Fatal(err)
	}

	// The "application" fills memory with data it cares about.
	appData := fillApplicationData(host)
	fmt.Printf("Application resident: %d rows of live data\n\n", rows)

	// One-time setup: learn the neighbor locations (in the field this
	// runs once per module qualification).
	tester, err := parbor.NewTester(host, parbor.DetectConfig{})
	if err != nil {
		log.Fatal(err)
	}
	nr, err := tester.DetectNeighborsCtx(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Detected neighbor distances: %v (%d tests)\n\n", nr.Distances, nr.TotalTests())

	// Note: detection overwrote memory; the application reloads. In a
	// real deployment detection itself would also migrate data.
	appData = fillApplicationData(host)

	// Steady state: a few rows per epoch, forever.
	sched, err := parbor.NewOnlineScheduler(host, parbor.OnlineConfig{
		Distances:    nr.Distances,
		RowsPerEpoch: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Online monitoring, 8 rows per epoch:")
	for epoch := 1; sched.Rounds() == 0; epoch++ {
		res, err := sched.RunEpoch(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  epoch %d: %2d rows out of service, %2d tests, %3d new failures, coverage %3.0f%%\n",
			epoch, len(res.RowsTested), res.Tests, len(res.NewFailures), 100*sched.Coverage())
	}
	fmt.Printf("\nFull sweep complete: %d data-dependent failures on record (%d tests total)\n",
		len(sched.Failures()), sched.Tests())

	// Prove no application data was harmed.
	if err := verifyApplicationData(host, appData); err != nil {
		log.Fatalf("DATA CORRUPTION: %v", err)
	}
	fmt.Println("Application data verified bit-for-bit intact.")
}

func fillApplicationData(host *parbor.Host) [][]uint64 {
	words := host.Geometry().Words()
	data := make([][]uint64, rows)
	list := make([]parbor.Row, rows)
	for r := 0; r < rows; r++ {
		data[r] = make([]uint64, words)
		for w := range data[r] {
			data[r][w] = uint64(r)<<32 | uint64(w)*0x9e3779b9
		}
		list[r] = parbor.Row{Chip: 0, Bank: 0, Row: r}
	}
	if _, err := host.Pass(context.Background(), list, data, 0); err != nil {
		log.Fatal(err)
	}
	return data
}

func verifyApplicationData(host *parbor.Host, want [][]uint64) error {
	got := make([]uint64, host.Geometry().Words())
	for r := 0; r < rows; r++ {
		if err := host.ReadRowInto(context.Background(), parbor.Row{Chip: 0, Bank: 0, Row: r}, got); err != nil {
			return err
		}
		for w := range got {
			if got[w] != want[r][w] {
				return fmt.Errorf("row %d word %d: %x != %x", r, w, got[w], want[r][w])
			}
		}
	}
	return nil
}
