package trace

import (
	"math"
	"testing"
)

func TestSPEC2006ProfileCount(t *testing.T) {
	apps := SPEC2006()
	if len(apps) != 17 {
		t.Fatalf("SPEC2006() returned %d apps, want 17 (paper, Section 8)", len(apps))
	}
	seen := map[string]bool{}
	for _, a := range apps {
		if seen[a.Name] {
			t.Errorf("duplicate app %q", a.Name)
		}
		seen[a.Name] = true
		if a.MPKI <= 0 || a.FootprintRows <= 0 {
			t.Errorf("app %q has invalid profile: %+v", a.Name, a)
		}
		if a.RowLocality < 0 || a.RowLocality > 1 || a.WriteFrac < 0 || a.WriteFrac > 1 ||
			a.ContentMatchProb < 0 || a.ContentMatchProb > 1 {
			t.Errorf("app %q has out-of-range probabilities: %+v", a.Name, a)
		}
	}
}

// TestAverageContentMatchProb pins the calibration that produces the
// paper's 2.7% fast-row fraction: 16.4% weak x ~16.5% matched.
func TestAverageContentMatchProb(t *testing.T) {
	avg := AverageContentMatchProb(SPEC2006())
	if math.Abs(avg-0.165) > 0.015 {
		t.Errorf("average content-match prob = %.3f, want about 0.165", avg)
	}
	if got := AverageContentMatchProb(nil); got != 0 {
		t.Errorf("empty average = %v, want 0", got)
	}
}

// generate draws n requests from a fresh stream of app.
func generate(t *testing.T, app App, n int, seed uint64) []Request {
	t.Helper()
	s, err := NewStream(app, seed)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	out := make([]Request, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

func TestStreamDeterminism(t *testing.T) {
	app := SPEC2006()[3] // milc
	a := generate(t, app, 1000, 5)
	b := generate(t, app, 1000, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs", i)
		}
	}
	c := generate(t, app, 1000, 6)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestStreamStatistics(t *testing.T) {
	app := SPEC2006()[1] // lbm
	reqs := generate(t, app, 50000, 3)
	var gaps, writes, hits float64
	last := int64(-1)
	for _, r := range reqs {
		gaps += float64(r.InstGap)
		if r.Write {
			writes++
		}
		if r.Row == last {
			hits++
		}
		last = r.Row
		if r.Row < 0 || r.Row >= int64(app.FootprintRows) {
			t.Fatalf("row %d outside footprint", r.Row)
		}
		if r.InstGap < 1 {
			t.Fatalf("InstGap %d < 1", r.InstGap)
		}
	}
	n := float64(len(reqs))
	if meanGap := gaps / n; math.Abs(meanGap-1000/app.MPKI) > 0.15*(1000/app.MPKI) {
		t.Errorf("mean gap = %.1f, want about %.1f", meanGap, 1000/app.MPKI)
	}
	if frac := writes / n; math.Abs(frac-app.WriteFrac) > 0.03 {
		t.Errorf("write fraction = %.3f, want about %.3f", frac, app.WriteFrac)
	}
	if loc := hits / n; math.Abs(loc-app.RowLocality) > 0.05 {
		t.Errorf("row locality = %.3f, want about %.3f", loc, app.RowLocality)
	}
}

func TestNewStreamValidation(t *testing.T) {
	if _, err := NewStream(App{Name: "x", MPKI: 0, FootprintRows: 10}, 1); err == nil {
		t.Error("MPKI=0 accepted")
	}
	if _, err := NewStream(App{Name: "x", MPKI: 1, FootprintRows: 0}, 1); err == nil {
		t.Error("FootprintRows=0 accepted")
	}
}

func TestWorkloads(t *testing.T) {
	wls := Workloads(32, 8, 9)
	if len(wls) != 32 {
		t.Fatalf("%d workloads, want 32", len(wls))
	}
	apps := map[string]bool{}
	for _, wl := range wls {
		if len(wl) != 8 {
			t.Fatalf("workload has %d cores, want 8", len(wl))
		}
		for _, a := range wl {
			apps[a.Name] = true
		}
	}
	if len(apps) < 12 {
		t.Errorf("32 workloads only used %d distinct apps; assignment looks broken", len(apps))
	}
	// Deterministic.
	again := Workloads(32, 8, 9)
	for w := range wls {
		for c := range wls[w] {
			if wls[w][c].Name != again[w][c].Name {
				t.Fatal("Workloads not deterministic")
			}
		}
	}
}
