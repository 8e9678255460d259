package onlinetest

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"parbor/internal/chaos"
	"parbor/internal/coupling"
	"parbor/internal/dram"
	"parbor/internal/memctl"
	"parbor/internal/obs"
	"parbor/internal/scramble"
)

// chaosHost is onlineHost with a fault plane and recorder attached.
// The module keeps the zero faults.Config: retried passes advance the
// chip pass counter, so retry bit-identity only holds when the
// cell-level noise models (which draw per pass) are off.
func chaosHost(t *testing.T, chips, rows int, plane memctl.FaultPlane, rec obs.Recorder) *memctl.Host {
	t.Helper()
	mod, err := dram.NewModule(dram.ModuleConfig{
		Vendor:   scramble.VendorA,
		Chips:    chips,
		Geometry: dram.Geometry{Banks: 1, Rows: rows, Cols: 8192},
		Coupling: coupling.Config{
			VulnerableRate:  2e-3,
			StrongLeftFrac:  0.3,
			StrongRightFrac: 0.3,
			RetentionMinMs:  100,
			RetentionMaxMs:  100,
		},
		Seed:     61,
		Recorder: rec,
	})
	if err != nil {
		t.Fatalf("NewModule: %v", err)
	}
	host, err := memctl.NewHostWithConfig(mod, memctl.HostConfig{Faults: plane, Recorder: rec})
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	return host
}

func runSweep(t *testing.T, s *Scheduler) []*EpochResult {
	t.Helper()
	var out []*EpochResult
	for s.Rounds() == 0 {
		res, err := s.RunEpoch(context.Background())
		if err != nil {
			t.Fatalf("epoch %d: %v", len(out), err)
		}
		out = append(out, res)
		if len(out) > 1000 {
			t.Fatal("sweep did not complete in 1000 epochs")
		}
	}
	return out
}

func TestConfigValidateErrorPaths(t *testing.T) {
	bad := []Config{
		{},
		{Distances: vendorADistances, RowsPerEpoch: -1},
		{Distances: vendorADistances, ChunkBits: -8},
		{Distances: vendorADistances, MaxRetries: -1},
		{Distances: vendorADistances, RetryBackoff: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
		if _, err := New(onlineHost(t, 8), cfg); err == nil {
			t.Errorf("New accepted bad config %d: %+v", i, cfg)
		}
	}
	good := Config{Distances: vendorADistances}
	if err := good.Validate(); err != nil {
		t.Errorf("zero-valued optional fields rejected: %v", err)
	}
}

// TestRetryBitIdentity is the headline resilience property: under
// injected transient faults, the retry policy must deliver the exact
// failure set of a fault-free run — same bits, nothing lost, nothing
// invented.
func TestRetryBitIdentity(t *testing.T) {
	const chips, rows = 2, 32

	clean := chaosHost(t, chips, rows, nil, nil)
	ref, err := New(clean, Config{Distances: vendorADistances, RowsPerEpoch: 8})
	if err != nil {
		t.Fatal(err)
	}
	runSweep(t, ref)

	plane, err := chaos.New(chaos.Config{Seed: 11, WriteFaultProb: 0.004, ReadFaultProb: 0.004}, nil)
	if err != nil {
		t.Fatal(err)
	}
	faulty := chaosHost(t, chips, rows, plane, nil)
	s, err := New(faulty, Config{Distances: vendorADistances, RowsPerEpoch: 8, MaxRetries: 8})
	if err != nil {
		t.Fatal(err)
	}
	results := runSweep(t, s)

	retries := 0
	for _, res := range results {
		retries += res.Retries
	}
	if retries == 0 {
		t.Fatal("fault plane injected nothing; pick a hotter seed or probability")
	}
	if retries != s.Retries() {
		t.Errorf("epoch results count %d retries, scheduler counts %d", retries, s.Retries())
	}
	if q := s.Quarantined(); len(q) != 0 {
		t.Fatalf("transient-only plane quarantined chips %v; retry budget too small for this test", q)
	}
	if !reflect.DeepEqual(s.Failures(), ref.Failures()) {
		t.Errorf("retried sweep found %d failures, fault-free sweep %d — retry is not transparent",
			len(s.Failures()), len(ref.Failures()))
	}
}

// TestDeadChipQuarantine: a chip that is dead from the start must be
// quarantined on first contact, its rows skipped thereafter, every
// affected epoch flagged degraded — and the rest of the module swept
// normally.
func TestDeadChipQuarantine(t *testing.T) {
	const chips, rows = 2, 16
	col := obs.NewCollector()
	// The plane reports to the same collector as the host, so the
	// injected faults sit next to the quarantine counters they caused
	// (Reconcile cross-checks exactly that pairing).
	plane, err := chaos.New(chaos.Config{DeadChips: []chaos.Window{{Chip: 1, From: 0, To: 0}}}, col)
	if err != nil {
		t.Fatal(err)
	}
	host := chaosHost(t, chips, rows, plane, col)
	s, err := New(host, Config{Distances: vendorADistances, RowsPerEpoch: 8})
	if err != nil {
		t.Fatal(err)
	}
	results := runSweep(t, s)

	if got := s.Quarantined(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("quarantined %v, want [1]", got)
	}
	for i, res := range results {
		touchedDead := len(res.SkippedRows) > 0 || len(res.Quarantined) > 0
		if touchedDead && !res.Degraded {
			t.Errorf("epoch %d lost rows but is not flagged degraded: %+v", i, res)
		}
		for _, r := range res.RowsTested {
			if r.Chip == 1 {
				t.Errorf("epoch %d tested row %+v on the dead chip", i, r)
			}
		}
	}
	for a := range s.Failures() {
		if a.Chip == 1 {
			t.Errorf("failure %+v attributed to the dead, untested chip", a)
		}
	}
	if len(s.Failures()) == 0 {
		t.Error("surviving chip produced no failures despite victim population")
	}
	if s.DegradedEpochs() == 0 {
		t.Error("no epochs counted degraded despite a dead chip")
	}

	// The reported counters must reconcile even under faults: the
	// cross-check only binds them to zero when no chaos was injected,
	// and here it was.
	rep := col.Snapshot("quarantine-test")
	if err := rep.Reconcile(); err != nil {
		t.Errorf("faulted run does not reconcile: %v", err)
	}
	if rep.Counters[obs.CounterQuarantinedChips] != 1 {
		t.Errorf("counters %v, want one quarantined chip", rep.Counters)
	}
}

// cancelPlane cancels a context the first time a test-pass write
// begins, producing a deterministic mid-epoch cancellation: live data
// is already saved and partially overwritten when the cancel lands.
type cancelPlane struct {
	cancel context.CancelFunc
	fired  bool
}

func (p *cancelPlane) BeforeWrite(attempt int, r memctl.Row) error {
	if !p.fired {
		p.fired = true
		p.cancel()
	}
	return nil
}

func (p *cancelPlane) BeforeRead(attempt int, r memctl.Row) error { return nil }

// TestCancelledEpochRestoresLiveData: cancellation mid-epoch must
// return promptly with the ctx error — after putting the saved live
// data back.
func TestCancelledEpochRestoresLiveData(t *testing.T) {
	const rows = 16
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	plane := &cancelPlane{cancel: cancel}
	host := chaosHost(t, 1, rows, plane, nil)
	app := writeAppData(t, host, rows)

	s, err := New(host, Config{Distances: vendorADistances, RowsPerEpoch: 8})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.RunEpoch(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled epoch returned %v, want context.Canceled", err)
	}
	if s.Coverage() != 0 {
		t.Errorf("cancelled epoch advanced the cursor to coverage %v", s.Coverage())
	}

	got := make([]uint64, host.Geometry().Words())
	for r := 0; r < rows; r++ {
		if err := host.ReadRowInto(context.Background(), memctl.Row{Chip: 0, Bank: 0, Row: r}, got); err != nil {
			t.Fatalf("ReadRowInto: %v", err)
		}
		for w := range got {
			if got[w] != app[r][w] {
				t.Fatalf("row %d word %d lost to the cancelled epoch: %x != %x", r, w, got[w], app[r][w])
			}
		}
	}

	// The same scheduler finishes the sweep once the pressure is off.
	runSweep(t, s)
}

// TestChaosSoak hammers a sweep with transient faults, stalls, and a
// chip that dies and revives, checking the bookkeeping stays
// consistent throughout. Run with -race this doubles as the
// concurrency check for the fault plane under the sharded host.
func TestChaosSoak(t *testing.T) {
	const chips, rows = 3, 16
	plane, err := chaos.New(chaos.Config{
		Seed:           23,
		WriteFaultProb: 0.002,
		ReadFaultProb:  0.002,
		StallProb:      0.001,
		DeadChips: []chaos.Window{
			// Dead for the sweep's first visit (first contact lands
			// around attempt 164), revived well before the second one:
			// the chip comes back, but quarantine is deliberately
			// permanent, so it stays out of service.
			{Chip: 2, From: 0, To: 400},
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	host := chaosHost(t, chips, rows, plane, nil)
	s, err := New(host, Config{Distances: vendorADistances, RowsPerEpoch: 8, MaxRetries: 8})
	if err != nil {
		t.Fatal(err)
	}

	totalRetries, totalQuarantined := 0, 0
	sawDegraded := false
	for epoch := 0; epoch < 24; epoch++ {
		res, err := s.RunEpoch(context.Background())
		if err != nil {
			t.Fatalf("soak epoch %d: %v", epoch, err)
		}
		totalRetries += res.Retries
		totalQuarantined += len(res.Quarantined)
		if res.Degraded {
			sawDegraded = true
			if len(res.SkippedRows) == 0 && len(res.Quarantined) == 0 && len(res.UnrestoredRows) == 0 {
				t.Errorf("epoch %d degraded with no cause recorded: %+v", epoch, res)
			}
		}
	}
	if totalRetries != s.Retries() {
		t.Errorf("epoch retries sum %d != scheduler total %d", totalRetries, s.Retries())
	}
	if totalQuarantined != len(s.Quarantined()) {
		t.Errorf("epoch quarantine sum %d != scheduler list %v", totalQuarantined, s.Quarantined())
	}
	if totalRetries == 0 {
		t.Error("soak injected no transient faults; parameters too cold")
	}
	if len(s.Quarantined()) == 0 {
		t.Error("dead-chip window never triggered quarantine; parameters too cold")
	} else if sawDegraded == false {
		t.Error("quarantine without any degraded epoch")
	}
	if plane.Dead(400, 2) {
		t.Error("chip 2 should have revived at attempt 400")
	}
	// Failures on quarantined chips must predate their quarantine;
	// failures elsewhere must match a fault-free twin's.
	clean := chaosHost(t, chips, rows, nil, nil)
	ref, err := New(clean, Config{Distances: vendorADistances, RowsPerEpoch: 8})
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 24; epoch++ {
		if _, err := ref.RunEpoch(context.Background()); err != nil {
			t.Fatalf("reference epoch %d: %v", epoch, err)
		}
	}
	refFails := ref.Failures()
	for a := range s.Failures() {
		if _, ok := refFails[a]; !ok {
			t.Errorf("soak invented failure %+v not present fault-free", a)
		}
	}
}
