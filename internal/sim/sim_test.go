package sim

import (
	"math"
	"testing"

	"parbor/internal/refresh"
	"parbor/internal/trace"
)

// quickCfg keeps unit-test runs fast: short window, small density.
func quickCfg(policy refresh.Kind) Config {
	return Config{
		Workload: trace.Workloads(1, 4, 3)[0],
		Policy:   policy,
		Density:  Density16Gbit,
		SimNs:    1e6, // 1 ms
		Seed:     11,
	}
}

func sumIPC(r *Result) float64 {
	s := 0.0
	for _, v := range r.IPC {
		s += v
	}
	return s
}

func TestRunBasicInvariants(t *testing.T) {
	r, err := Run(quickCfg(refresh.Uniform))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(r.IPC) != 4 {
		t.Fatalf("IPC entries = %d, want 4", len(r.IPC))
	}
	for c, ipc := range r.IPC {
		if ipc <= 0 || ipc > 3.2 {
			t.Errorf("core %d IPC = %v, want in (0, 3.2]", c, ipc)
		}
	}
	if r.Requests == 0 || r.Instructions == 0 {
		t.Error("no work simulated")
	}
	serviced := r.RowHits + r.RowMisses
	if serviced > r.Requests {
		t.Errorf("serviced %d > issued %d", serviced, r.Requests)
	}
	// A few requests may still sit in bank queues when the window
	// closes, but not more than the queues can hold.
	if r.Requests-serviced > 256 {
		t.Errorf("%d requests never serviced", r.Requests-serviced)
	}
	if r.AvgReadLatencyNs <= 0 {
		t.Error("no read latency recorded")
	}
	if r.Energy.Total() <= 0 || r.Energy.RefreshNJ <= 0 {
		t.Errorf("degenerate energy account: %+v", r.Energy)
	}
	if r.Refreshes == 0 || r.RefreshBusyNs == 0 {
		t.Error("no refreshes simulated")
	}
	if r.FastRowFrac != 1.0 {
		t.Errorf("uniform FastRowFrac = %v, want 1", r.FastRowFrac)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(quickCfg(refresh.DCREF))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, err := Run(quickCfg(refresh.DCREF))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.Requests != b.Requests || a.Refreshes != b.Refreshes || sumIPC(a) != sumIPC(b) {
		t.Error("identical configs produced different results")
	}
}

// TestPolicyOrdering verifies the central Figure 16 relationships:
// refreshes(DC-REF) < refreshes(RAIDR) < refreshes(baseline) and the
// reverse ordering for performance.
func TestPolicyOrdering(t *testing.T) {
	var results []*Result
	for _, k := range refresh.Kinds() {
		r, err := Run(quickCfg(k))
		if err != nil {
			t.Fatalf("Run(%v): %v", k, err)
		}
		results = append(results, r)
	}
	base, raidr, dcref := results[0], results[1], results[2]
	if !(dcref.Refreshes < raidr.Refreshes && raidr.Refreshes < base.Refreshes) {
		t.Errorf("refresh ordering wrong: dcref=%d raidr=%d base=%d",
			dcref.Refreshes, raidr.Refreshes, base.Refreshes)
	}
	if !(sumIPC(dcref) > sumIPC(base)) {
		t.Errorf("performance ordering wrong: dcref=%v base=%v", sumIPC(dcref), sumIPC(base))
	}
	if !(sumIPC(raidr) > sumIPC(base)) {
		t.Errorf("performance ordering wrong: raidr=%v base=%v", sumIPC(raidr), sumIPC(base))
	}
}

// TestRefreshReductionMatchesPaper checks the two headline refresh
// numbers of Section 8 in a full simulation: DC-REF performs about
// 73% fewer refreshes than the baseline and about 27.6% fewer than
// RAIDR.
func TestRefreshReductionMatchesPaper(t *testing.T) {
	run := func(k refresh.Kind) *Result {
		cfg := quickCfg(k)
		cfg.SimNs = 2e6
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run(%v): %v", k, err)
		}
		return r
	}
	base := run(refresh.Uniform)
	raidr := run(refresh.RAIDR)
	dcref := run(refresh.DCREF)

	vsBase := 1 - float64(dcref.Refreshes)/float64(base.Refreshes)
	if math.Abs(vsBase-0.73) > 0.04 {
		t.Errorf("DC-REF refresh reduction vs baseline = %.3f, want about 0.73", vsBase)
	}
	vsRAIDR := 1 - float64(dcref.Refreshes)/float64(raidr.Refreshes)
	if math.Abs(vsRAIDR-0.276) > 0.06 {
		t.Errorf("DC-REF refresh reduction vs RAIDR = %.3f, want about 0.276", vsRAIDR)
	}
}

// TestDensityScaling: 32 Gbit chips pay more for refresh, so the
// baseline slows down and DC-REF's relative benefit grows (the trend
// the paper's Figure 16 argument rests on).
func TestDensityScaling(t *testing.T) {
	imp := func(d Density) float64 {
		base := quickCfg(refresh.Uniform)
		base.Density = d
		dc := quickCfg(refresh.DCREF)
		dc.Density = d
		rb, err := Run(base)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		rd, err := Run(dc)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return sumIPC(rd)/sumIPC(rb) - 1
	}
	i16 := imp(Density16Gbit)
	i32 := imp(Density32Gbit)
	if i32 <= i16 {
		t.Errorf("DC-REF improvement at 32Gbit (%.3f) should exceed 16Gbit (%.3f)", i32, i16)
	}
	if i32 <= 0.03 {
		t.Errorf("DC-REF improvement at 32Gbit = %.3f, want a substantial gain", i32)
	}
}

func TestDCREFFastRowFraction(t *testing.T) {
	r, err := Run(quickCfg(refresh.DCREF))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Paper: 2.7% of rows on the fast interval on average.
	if r.FastRowFrac < 0.01 || r.FastRowFrac > 0.06 {
		t.Errorf("DC-REF FastRowFrac = %v, want about 0.027-ish", r.FastRowFrac)
	}
}

func TestConfigValidation(t *testing.T) {
	wl := trace.Workloads(1, 1, 1)[0]
	bad := []Config{
		{Workload: nil, Policy: refresh.Uniform, Density: Density16Gbit},
		{Workload: wl, Policy: refresh.Kind(9), Density: Density16Gbit},
		{Workload: wl, Policy: refresh.Uniform, Density: Density(9)},
		{Workload: wl, Policy: refresh.Uniform, Density: Density16Gbit, WeakRowFrac: 2},
		{Workload: wl, Policy: refresh.Uniform, Density: Density16Gbit, MLP: -1},
		{Workload: wl, Policy: refresh.Uniform, Density: Density16Gbit, Channels: -1},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestDensityAccessors(t *testing.T) {
	if _, err := Density(0).tRFCns(); err == nil {
		t.Error("invalid density tRFCns accepted")
	}
	if _, err := Density(0).rowsPerBank(); err == nil {
		t.Error("invalid density rowsPerBank accepted")
	}
	if Density16Gbit.String() != "16Gbit" || Density32Gbit.String() != "32Gbit" {
		t.Error("unexpected density names")
	}
	if Density(9).String() != "Density(9)" {
		t.Error("unexpected fallback density name")
	}
	trfc16, _ := Density16Gbit.tRFCns()
	trfc32, _ := Density32Gbit.tRFCns()
	if trfc16 != 590 || trfc32 != 1000 {
		t.Errorf("tRFC = %v/%v, want 590/1000", trfc16, trfc32)
	}
}

// TestMoreIntensiveWorkloadLowerIPC is a sanity check on the core
// model: a memory-hog mix must achieve lower per-core IPC than a
// compute-bound mix.
func TestMoreIntensiveWorkloadLowerIPC(t *testing.T) {
	mcf := specApp(t, "mcf")
	hmmer := specApp(t, "hmmer")
	run := func(app trace.App) float64 {
		r, err := Run(Config{
			Workload: []trace.App{app, app, app, app},
			Policy:   refresh.Uniform,
			Density:  Density16Gbit,
			SimNs:    5e5,
			Seed:     2,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return sumIPC(r)
	}
	if hog, light := run(mcf), run(hmmer); hog >= light {
		t.Errorf("mcf mix IPC (%v) should be below hmmer mix IPC (%v)", hog, light)
	}
}
