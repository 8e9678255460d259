package sim

import (
	"testing"

	"parbor/internal/refresh"
	"parbor/internal/trace"
)

// specApp returns the SPEC2006 profile called name.
func specApp(t *testing.T, name string) trace.App {
	t.Helper()
	for _, a := range trace.SPEC2006() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no SPEC2006 profile %q", name)
	return trace.App{}
}

// TestFRFCFSPrefersRowHits uses a streaming workload (libquantum,
// 95% locality) and a pointer-chasing one (mcf, 20%): the scheduler's
// row-hit preference must show up as a large hit-rate gap.
func TestFRFCFSPrefersRowHits(t *testing.T) {
	hitRate := func(name string) float64 {
		app := specApp(t, name)
		res, err := Run(Config{
			Workload: []trace.App{app, app},
			Policy:   refresh.Uniform,
			Density:  Density16Gbit,
			SimNs:    5e5,
			Seed:     3,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return float64(res.RowHits) / float64(res.RowHits+res.RowMisses)
	}
	stream := hitRate("libquantum")
	chase := hitRate("mcf")
	if stream < 0.75 {
		t.Errorf("libquantum hit rate = %.2f, want high", stream)
	}
	if chase > 0.55 {
		t.Errorf("mcf hit rate = %.2f, want low", chase)
	}
	if stream <= chase {
		t.Errorf("hit rates inverted: stream %.2f <= chase %.2f", stream, chase)
	}
}

// TestReadLatencyGrowsUnderLoad: adding cores to the same memory
// system must not reduce average read latency.
func TestReadLatencyGrowsUnderLoad(t *testing.T) {
	lat := func(cores int) float64 {
		app := specApp(t, "milc")
		wl := make([]trace.App, cores)
		for i := range wl {
			wl[i] = app
		}
		res, err := Run(Config{
			Workload: wl,
			Policy:   refresh.Uniform,
			Density:  Density16Gbit,
			SimNs:    5e5,
			Seed:     4,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res.AvgReadLatencyNs
	}
	light, heavy := lat(1), lat(8)
	if heavy < light {
		t.Errorf("read latency fell under load: 1 core %.1f ns, 8 cores %.1f ns", light, heavy)
	}
}

// TestEnergyRefreshShareTracksPolicy: the refresh component of the
// energy account must shrink under DC-REF roughly as much as the
// refresh count does.
func TestEnergyRefreshShareTracksPolicy(t *testing.T) {
	run := func(k refresh.Kind) *Result {
		res, err := Run(quickCfg(k))
		if err != nil {
			t.Fatalf("Run(%v): %v", k, err)
		}
		return res
	}
	base := run(refresh.Uniform)
	dcref := run(refresh.DCREF)
	if dcref.Energy.RefreshNJ >= base.Energy.RefreshNJ {
		t.Errorf("refresh energy did not shrink: %.0f vs %.0f nJ",
			dcref.Energy.RefreshNJ, base.Energy.RefreshNJ)
	}
	ratioEnergy := dcref.Energy.RefreshNJ / base.Energy.RefreshNJ
	ratioCount := float64(dcref.Refreshes) / float64(base.Refreshes)
	if diff := ratioEnergy - ratioCount; diff > 0.01 || diff < -0.01 {
		t.Errorf("refresh energy ratio %.3f diverges from count ratio %.3f", ratioEnergy, ratioCount)
	}
	if dcref.Energy.Total() >= base.Energy.Total() {
		t.Error("total energy did not improve under DC-REF")
	}
}

// TestPerBankRefreshOutperformsAllBank: REFpb keeps the rank's other
// banks serving during refresh, so it must not lose to all-bank
// refresh under the same policy.
func TestPerBankRefreshOutperformsAllBank(t *testing.T) {
	run := func(perBank bool) float64 {
		cfg := quickCfg(refresh.Uniform)
		cfg.Density = Density32Gbit
		cfg.PerBankRefresh = perBank
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return sumIPC(res)
	}
	allBank := run(false)
	perBank := run(true)
	if perBank < allBank {
		t.Errorf("REFpb IPC %.3f < all-bank %.3f", perBank, allBank)
	}
}
