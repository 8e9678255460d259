package onlinetest

import (
	"context"
	"slices"
	"testing"

	"parbor/internal/coupling"
	"parbor/internal/dram"
	"parbor/internal/faults"
	"parbor/internal/memctl"
	"parbor/internal/rng"
	"parbor/internal/scramble"
)

var vendorADistances = []int{-48, -16, -8, 8, 16, 48}

func onlineHost(t *testing.T, rows int) *memctl.Host {
	t.Helper()
	mod, err := dram.NewModule(dram.ModuleConfig{
		Vendor:   scramble.VendorA,
		Chips:    1,
		Geometry: dram.Geometry{Banks: 1, Rows: rows, Cols: 8192},
		Coupling: coupling.Config{
			VulnerableRate:  2e-3,
			StrongLeftFrac:  0.3,
			StrongRightFrac: 0.3,
			RetentionMinMs:  100,
			RetentionMaxMs:  100,
		},
		Faults: faults.Config{},
		Seed:   61,
	})
	if err != nil {
		t.Fatalf("NewModule: %v", err)
	}
	host, err := memctl.NewHost(mod, 0)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	return host
}

// writeAppData fills the module with recognizable pseudo-random
// application data and returns a copy of what was written.
func writeAppData(t *testing.T, host *memctl.Host, rows int) [][]uint64 {
	t.Helper()
	words := host.Geometry().Words()
	src := rng.New(9)
	data := make([][]uint64, rows)
	rlist := make([]memctl.Row, rows)
	for r := 0; r < rows; r++ {
		data[r] = make([]uint64, words)
		for w := range data[r] {
			data[r][w] = src.Uint64()
		}
		rlist[r] = memctl.Row{Chip: 0, Bank: 0, Row: r}
	}
	if _, err := host.Pass(context.Background(), rlist, data, 0); err != nil {
		t.Fatalf("writing app data: %v", err)
	}
	return data
}

func TestEpochPreservesLiveData(t *testing.T) {
	const rows = 32
	host := onlineHost(t, rows)
	app := writeAppData(t, host, rows)

	s, err := New(host, Config{Distances: vendorADistances, RowsPerEpoch: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.RunEpoch(context.Background()); err != nil {
		t.Fatalf("RunEpoch: %v", err)
	}
	// The first 8 rows were tested and restored; their live data must
	// be intact.
	got := make([]uint64, host.Geometry().Words())
	for r := 0; r < 8; r++ {
		if err := host.ReadRowInto(context.Background(), memctl.Row{Chip: 0, Bank: 0, Row: r}, got); err != nil {
			t.Fatalf("ReadRowInto: %v", err)
		}
		for w := range got {
			if got[w] != app[r][w] {
				t.Fatalf("row %d word %d corrupted by online test: %x != %x", r, w, got[w], app[r][w])
			}
		}
	}
}

func TestCoverageAccumulatesToFullSweep(t *testing.T) {
	const rows = 32
	host := onlineHost(t, rows)
	writeAppData(t, host, rows)
	s, err := New(host, Config{Distances: vendorADistances, RowsPerEpoch: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for epoch := 0; epoch < 4; epoch++ {
		wantCov := float64(epoch) / 4
		if got := s.Coverage(); got != wantCov {
			t.Errorf("epoch %d: coverage %.2f, want %.2f", epoch, got, wantCov)
		}
		res, err := s.RunEpoch(context.Background())
		if err != nil {
			t.Fatalf("RunEpoch: %v", err)
		}
		if wantDone := epoch == 3; res.SweepCompleted != wantDone {
			t.Errorf("epoch %d: sweep completed = %v", epoch, res.SweepCompleted)
		}
	}
	if s.Coverage() != 1 || s.Rounds() != 1 {
		t.Errorf("after 4 epochs: coverage %.2f rounds %d, want 1/1", s.Coverage(), s.Rounds())
	}
	if len(s.Failures()) == 0 {
		t.Error("full sweep found no failures despite victim population")
	}
}

// TestOnlineMatchesOfflineCoverage: a full online sweep must find the
// same failures as one offline neighbor-aware full-chip run on an
// identical module.
func TestOnlineMatchesOfflineCoverage(t *testing.T) {
	const rows = 32
	online := onlineHost(t, rows)
	writeAppData(t, online, rows)
	s, err := New(online, Config{Distances: vendorADistances, RowsPerEpoch: 16})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for !(s.Rounds() > 0) {
		if _, err := s.RunEpoch(context.Background()); err != nil {
			t.Fatalf("RunEpoch: %v", err)
		}
	}

	// Offline reference on a twin module.
	offline := onlineHost(t, rows)
	refS, err := New(offline, Config{Distances: vendorADistances, RowsPerEpoch: rows})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := refS.RunEpoch(context.Background()); err != nil {
		t.Fatalf("reference epoch: %v", err)
	}

	got, want := s.Failures(), refS.Failures()
	if len(got) != len(want) {
		t.Fatalf("online found %d failures, offline %d", len(got), len(want))
	}
	for a := range want {
		if _, ok := got[a]; !ok {
			t.Fatalf("online missed %+v", a)
		}
	}
}

func TestValidation(t *testing.T) {
	host := onlineHost(t, 8)
	if _, err := New(nil, Config{Distances: vendorADistances}); err == nil {
		t.Error("nil host accepted")
	}
	if _, err := New(host, Config{}); err == nil {
		t.Error("empty distances accepted")
	}
	if _, err := New(host, Config{Distances: vendorADistances, RowsPerEpoch: -1}); err == nil {
		t.Error("negative epoch size accepted")
	}
}

func TestEpochLargerThanModule(t *testing.T) {
	host := onlineHost(t, 4)
	writeAppData(t, host, 4)
	s, err := New(host, Config{Distances: vendorADistances, RowsPerEpoch: 100})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := s.RunEpoch(context.Background())
	if err != nil {
		t.Fatalf("RunEpoch: %v", err)
	}
	if len(res.RowsTested) != 4 || !res.SweepCompleted {
		t.Errorf("oversized epoch: tested %d rows, completed %v", len(res.RowsTested), res.SweepCompleted)
	}
}

// TestObservedCapturesRepeats: Observed must report every failure the
// epoch saw — including repeats of already-known cells — in canonical
// order, because the fleet's event log separates permanent from
// transient faults by repeat observation.
func TestObservedCapturesRepeats(t *testing.T) {
	const rows = 16
	host := onlineHost(t, rows)
	writeAppData(t, host, rows)
	s, err := New(host, Config{Distances: vendorADistances, RowsPerEpoch: rows})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Two full sweeps over identical rows: the second sweep's failures
	// are all repeats, so NewFailures must be empty while Observed
	// re-reports the deterministic victim set.
	first, err := s.RunEpoch(context.Background())
	if err != nil {
		t.Fatalf("RunEpoch: %v", err)
	}
	if len(first.Observed) == 0 {
		t.Fatal("full sweep observed nothing despite victim population")
	}
	seen := make(map[memctl.BitAddr]struct{}, len(first.Observed))
	for i, a := range first.Observed {
		seen[a] = struct{}{}
		if i > 0 && memctl.CompareAddrs(first.Observed[i-1], a) >= 0 {
			t.Fatalf("Observed out of canonical order at %d: %+v !< %+v", i, first.Observed[i-1], a)
		}
	}
	for _, a := range first.NewFailures {
		if _, ok := seen[a]; !ok {
			t.Errorf("NewFailures entry %+v missing from Observed", a)
		}
	}
	second, err := s.RunEpoch(context.Background())
	if err != nil {
		t.Fatalf("second RunEpoch: %v", err)
	}
	if len(second.NewFailures) != 0 {
		t.Errorf("second identical sweep reported %d new failures", len(second.NewFailures))
	}
	if len(second.Observed) != len(first.Observed) {
		t.Fatalf("second sweep observed %d failures, first %d — repeats not captured",
			len(second.Observed), len(first.Observed))
	}
	for i := range second.Observed {
		if second.Observed[i] != first.Observed[i] {
			t.Fatalf("observation %d drifted across sweeps: %+v vs %+v", i, second.Observed[i], first.Observed[i])
		}
	}
}

// TestPatternRowsMatchFills: each pattern's one materialized row,
// aliased for every row under test, must hold exactly what filling
// any row with that pattern would.
func TestPatternRowsMatchFills(t *testing.T) {
	host := onlineHost(t, 32)
	s, err := New(host, Config{Distances: vendorADistances})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, host.Geometry().Words())
	for i, p := range s.pats {
		if !p.Uniform {
			t.Fatalf("pattern %d is not uniform; one row cannot stand for every row", i)
		}
		for _, r := range []memctl.Row{{}, {Chip: 0, Bank: 0, Row: 17}, {Chip: 3, Bank: 2, Row: 31}} {
			p.Fill(r.Chip, r.Bank, r.Row, want)
			if !slices.Equal(s.patRows[i], want) {
				t.Fatalf("pattern %d: materialized row differs from its fill of %+v", i, r)
			}
		}
	}
}
