package parbor_test

import (
	"context"
	"reflect"
	"testing"

	"parbor"
)

// facadeHost builds a small simulated module through the public API.
func facadeHost(t *testing.T, vendor parbor.Vendor, rows int, seed uint64) *parbor.Host {
	t.Helper()
	cc := parbor.DefaultCouplingConfig()
	cc.VulnerableRate = 2e-3
	mod, err := parbor.NewModule(parbor.ModuleConfig{
		Name:     "facade",
		Vendor:   vendor,
		Chips:    1,
		Geometry: parbor.Geometry{Banks: 1, Rows: rows, Cols: 8192},
		Coupling: cc,
		Faults:   parbor.DefaultFaultsConfig(),
		Seed:     seed,
	})
	if err != nil {
		t.Fatalf("NewModule: %v", err)
	}
	host, err := parbor.NewHost(mod, 0)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	return host
}

// TestFacadeDetectionToMitigation drives the whole public surface:
// detection, classification, extended detection, content matching,
// repair planning — the integration path a downstream adopter would
// write.
func TestFacadeDetectionToMitigation(t *testing.T) {
	host := facadeHost(t, parbor.VendorA, 192, 3)
	tester, err := parbor.NewTester(host, parbor.DetectConfig{})
	if err != nil {
		t.Fatalf("NewTester: %v", err)
	}
	report, err := tester.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	victims, _, _, err := tester.DiscoverVictims(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	classified, _, err := tester.ClassifyVictims(context.Background(), victims, report.Neighbor.Distances)
	if err != nil {
		t.Fatalf("ClassifyVictims: %v", err)
	}
	if tail := parbor.TailGated(classified); len(tail) > 0 {
		ext, err := tester.DetectExtendedNeighbors(context.Background(), tail, report.Neighbor.Distances)
		if err != nil {
			t.Fatalf("DetectExtendedNeighbors: %v", err)
		}
		if ext.Tests == 0 {
			t.Error("extended detection did no work")
		}
	}

	matcher, err := parbor.NewContentMatcher(report.Neighbor.Distances, 8192)
	if err != nil {
		t.Fatalf("NewContentMatcher: %v", err)
	}
	if err := matcher.AddRow(1, []parbor.VulnerableCell{{Col: 100, FailData: 1}}); err != nil {
		t.Fatalf("AddRow: %v", err)
	}
	data := make([]uint64, 128)
	for i := range data {
		data[i] = ^uint64(0)
	}
	if matched, _ := matcher.Matches(1, data); matched {
		t.Error("uniform content matched")
	}

	failures := make([]parbor.BitAddr, 0, len(report.AllFailures))
	for a := range report.AllFailures {
		failures = append(failures, a)
	}
	plan, err := parbor.PlanRepair(failures,
		parbor.RepairBudget{SpareRows: 4, ECCBitsPerWord: 1, RemapEntries: 32},
		parbor.RepairOptions{RefreshManaged: parbor.RefreshManagedSet(classified)})
	if err != nil {
		t.Fatalf("PlanRepair: %v", err)
	}
	if plan.CoverageFraction() <= 0 {
		t.Error("plan covered nothing")
	}
}

func TestFacadeRetentionAndMarch(t *testing.T) {
	host := facadeHost(t, parbor.VendorB, 48, 5)
	profiler, err := parbor.NewRetentionProfiler(host, parbor.RetentionConfig{MinMs: 128, MaxMs: 512})
	if err != nil {
		t.Fatalf("NewRetentionProfiler: %v", err)
	}
	pats, err := parbor.NeighborAwarePatterns([]int{-64, -1, 1, 64}, 128)
	if err != nil {
		t.Fatalf("NeighborAwarePatterns: %v", err)
	}
	profile, err := profiler.ProfileModule(context.Background(), pats)
	if err != nil {
		t.Fatalf("ProfileModule: %v", err)
	}
	if profile.WeakRowFraction(1024) <= 0 {
		t.Error("profile found no weak rows")
	}

	engine, err := parbor.NewMarchEngine(host)
	if err != nil {
		t.Fatalf("NewMarchEngine: %v", err)
	}
	for _, test := range []parbor.MarchTest{parbor.MATSPlus(), parbor.MarchCMinus(), parbor.MarchSS()} {
		res, err := engine.Run(context.Background(), parbor.WithRetentionDelays(test, 500))
		if err != nil {
			t.Fatalf("Run(%s): %v", test.Name, err)
		}
		if res.Reads == 0 {
			t.Errorf("%s did no reads", test.Name)
		}
	}
}

func TestFacadeOnlineScheduler(t *testing.T) {
	host := facadeHost(t, parbor.VendorA, 16, 7)
	sched, err := parbor.NewOnlineScheduler(host, parbor.OnlineConfig{
		Distances:    []int{-48, -16, -8, 8, 16, 48},
		RowsPerEpoch: 8,
	})
	if err != nil {
		t.Fatalf("NewOnlineScheduler: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := sched.RunEpoch(context.Background()); err != nil {
			t.Fatalf("RunEpoch: %v", err)
		}
	}
	if sched.Rounds() != 1 {
		t.Errorf("rounds = %d, want 1", sched.Rounds())
	}
}

// TestFacadeHostParallelism exercises the public Parallelism knob: a
// sharded host and a serial host must produce bit-identical failure
// sets through the public API, on a multi-chip module.
func TestFacadeHostParallelism(t *testing.T) {
	build := func(parallelism int) *parbor.Host {
		cc := parbor.DefaultCouplingConfig()
		cc.VulnerableRate = 2e-3
		mod, err := parbor.NewModule(parbor.ModuleConfig{
			Name:     "facade-par",
			Vendor:   parbor.VendorC,
			Chips:    4,
			Geometry: parbor.Geometry{Banks: 1, Rows: 32, Cols: 2048},
			Coupling: cc,
			Faults:   parbor.DefaultFaultsConfig(),
			Seed:     11,
		})
		if err != nil {
			t.Fatalf("NewModule: %v", err)
		}
		host, err := parbor.NewHostWithConfig(mod, parbor.HostConfig{WaitMs: 512, Parallelism: parallelism})
		if err != nil {
			t.Fatalf("NewHostWithConfig: %v", err)
		}
		return host
	}
	serial, sharded := build(1), build(8)
	fill := func(_ parbor.Row, buf []uint64) []uint64 {
		for i := range buf {
			buf[i] = 0x5555555555555555
		}
		return buf
	}
	want, err := serial.FullPass(context.Background(), fill, serial.WaitMs())
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.FullPass(context.Background(), fill, sharded.WaitMs())
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("degenerate module: no failures to compare")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded host diverged from serial: %d vs %d failures", len(got), len(want))
	}
	if serial.Passes() != sharded.Passes() {
		t.Errorf("pass counts diverged: %d vs %d", serial.Passes(), sharded.Passes())
	}
}
