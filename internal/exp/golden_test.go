package exp

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"parbor/internal/core"
	"parbor/internal/obs"
	"parbor/internal/scramble"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden regression files instead of comparing")

const goldenPath = "testdata/golden_table1.json"

// goldenVendor pins one vendor's end-to-end detection run: the Table 1
// test counts published in the paper, the detected distance set, the
// exact failure population (as a checksum, so the file stays small),
// and the DRAM commands the run issued. Any change to the detection
// pipeline, the fault model, or the instrumentation that shifts these
// shows up as a diff against the checked-in file.
type goldenVendor struct {
	Vendor            string            `json:"vendor"`
	PerLevelTests     []int             `json:"per_level_tests"`
	RecursionTests    int               `json:"recursion_tests"`
	DiscoveryTests    int               `json:"discovery_tests"`
	FullChipTests     int               `json:"full_chip_tests"`
	SampleSize        int               `json:"sample_size"`
	Distances         []int             `json:"distances"`
	AllFailures       int               `json:"all_failures"`
	FailureChecksum   string            `json:"failure_checksum"`
	DiscoveryChecksum string            `json:"discovery_checksum"`
	Commands          map[string]uint64 `json:"commands"`
	// Resilience pins the chaos/resilience counters ("chaos.*",
	// "resilience.*"). The golden runs are fault-free, so this section
	// is empty — and the regression fails if the default path ever
	// starts injecting faults, retrying, or quarantining.
	Resilience map[string]uint64 `json:"resilience"`
}

type goldenFile struct {
	Schema      string         `json:"schema"`
	RowsPerChip int            `json:"rows_per_chip"`
	Chips       int            `json:"chips"`
	Seed        uint64         `json:"seed"`
	Vendors     []goldenVendor `json:"vendors"`
}

// goldenOpts matches bench_test.go's benchOpts so the benchmark and
// the regression test pin the same configuration.
func goldenOpts() Options {
	return Options{RowsPerChip: 256, Chips: 2, ModulesPerVendor: 2, Seed: 42}
}

// failureChecksum hashes a failure set order-independently. The
// encoding lives in core.FailureSet.Checksum so the CLI's online-sweep
// checksums and the golden file agree byte for byte.
func failureChecksum(fs core.FailureSet) string {
	return fs.Checksum()
}

// resilienceCounters extracts the chaos and resilience counters from a
// report snapshot. Always non-nil, so the golden JSON round-trips to
// an empty map rather than null.
func resilienceCounters(snap *obs.Report) map[string]uint64 {
	out := map[string]uint64{}
	for name, n := range snap.Counters {
		if strings.HasPrefix(name, "chaos.") || strings.HasPrefix(name, "resilience.") {
			out[name] = n
		}
	}
	return out
}

// runGoldenVendor runs the full PARBOR pipeline for one vendor under
// an instrumented host and distills the run into a goldenVendor.
func runGoldenVendor(t *testing.T, v scramble.Vendor, o Options) goldenVendor {
	t.Helper()
	col := obs.NewCollector()
	o.Recorder = col
	tester, _, err := newTester(moduleName(v, 0), v, o, moduleSeed(o.Seed, v, 0))
	if err != nil {
		t.Fatalf("vendor %v: newTester: %v", v, err)
	}
	rep, err := tester.Run(context.Background())
	if err != nil {
		t.Fatalf("vendor %v: Run: %v", v, err)
	}
	snap := col.Snapshot("golden")
	if err := snap.Reconcile(); err != nil {
		t.Fatalf("vendor %v: instrumented run does not reconcile: %v", v, err)
	}
	nr := rep.Neighbor
	g := goldenVendor{
		Vendor:            v.String(),
		RecursionTests:    nr.RecursionTests,
		DiscoveryTests:    nr.DiscoveryTests,
		FullChipTests:     rep.FullChipTests,
		SampleSize:        nr.SampleSize,
		Distances:         nr.Distances,
		AllFailures:       len(rep.AllFailures),
		FailureChecksum:   failureChecksum(rep.AllFailures),
		DiscoveryChecksum: failureChecksum(nr.DiscoveryFailures),
		Commands:          snap.Commands,
		Resilience:        resilienceCounters(snap),
	}
	if len(g.Resilience) != 0 {
		t.Errorf("vendor %v: fault-free golden run reported resilience counters %v", v, g.Resilience)
	}
	for _, lvl := range nr.Levels {
		g.PerLevelTests = append(g.PerLevelTests, lvl.Tests)
	}
	return g
}

// TestGoldenTable1Regression is the golden-figure regression: the
// Table 1 runs at a fixed seed must keep producing the published test
// counts (A: 90, B: 66, C: 90), the same distance sets, the same
// failure populations, and the same DRAM-command totals as the
// checked-in golden file. Regenerate with:
//
//	go test ./internal/exp -run TestGoldenTable1Regression -update
func TestGoldenTable1Regression(t *testing.T) {
	o := goldenOpts()
	got := goldenFile{
		Schema:      "parbor/golden/v1",
		RowsPerChip: o.RowsPerChip,
		Chips:       o.Chips,
		Seed:        o.Seed,
	}
	for _, v := range scramble.Vendors() {
		got.Vendors = append(got.Vendors, runGoldenVendor(t, v, o))
	}

	// The paper's Table 1 counts hold regardless of what the golden
	// file says — this guards against regenerating a broken golden.
	published := map[string]int{"A": 90, "B": 66, "C": 90}
	for _, g := range got.Vendors {
		if g.RecursionTests != published[g.Vendor] {
			t.Errorf("vendor %s: %d recursion tests, want published %d",
				g.Vendor, g.RecursionTests, published[g.Vendor])
		}
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatalf("marshal golden: %v", err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatalf("mkdir testdata: %v", err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	if want.Schema != got.Schema {
		t.Fatalf("golden schema %q, want %q", want.Schema, got.Schema)
	}
	if want.RowsPerChip != got.RowsPerChip || want.Chips != got.Chips || want.Seed != got.Seed {
		t.Fatalf("golden configuration %d rows x %d chips seed %d does not match the test's %d x %d seed %d — regenerate with -update",
			want.RowsPerChip, want.Chips, want.Seed, got.RowsPerChip, got.Chips, got.Seed)
	}
	if len(want.Vendors) != len(got.Vendors) {
		t.Fatalf("golden has %d vendors, run produced %d", len(want.Vendors), len(got.Vendors))
	}
	for i, w := range want.Vendors {
		g := got.Vendors[i]
		if !reflect.DeepEqual(w, g) {
			t.Errorf("vendor %s diverges from golden:\n  golden: %+v\n  got:    %+v", w.Vendor, w, g)
		}
	}
}
