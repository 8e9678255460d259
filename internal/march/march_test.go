package march

import (
	"context"
	"errors"
	"strings"
	"testing"

	"parbor/internal/coupling"
	"parbor/internal/dram"
	"parbor/internal/faults"
	"parbor/internal/memctl"
	"parbor/internal/scramble"
)

func marchHost(t *testing.T, cc coupling.Config, fc faults.Config) *memctl.Host {
	t.Helper()
	mod, err := dram.NewModule(dram.ModuleConfig{
		Vendor:   scramble.VendorA,
		Chips:    1,
		Geometry: dram.Geometry{Banks: 1, Rows: 64, Cols: 1024},
		Coupling: cc,
		Faults:   fc,
		Seed:     17,
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

func quiet() coupling.Config {
	return coupling.Config{VulnerableRate: 0, RetentionMinMs: 1, RetentionMaxMs: 1}
}

func TestMarchCleanModulePasses(t *testing.T) {
	host := marchHost(t, quiet(), faults.Config{})
	engine, err := NewEngine(host)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for _, test := range []Test{MATSPlus(), MarchCMinus(), MarchSS()} {
		res, err := engine.Run(context.Background(), test)
		if err != nil {
			t.Fatalf("Run(%s): %v", test.Name, err)
		}
		if len(res.Failures) != 0 {
			t.Errorf("%s found %d failures on a clean module", test.Name, len(res.Failures))
		}
		if res.Reads == 0 || res.Writes == 0 {
			t.Errorf("%s performed no work: %+v", test.Name, res)
		}
	}
}

// TestMarchWithoutDelayMissesRetentionFaults: weak cells only fail
// after a long unrefreshed interval, so a surface March test cannot
// see them — the delay-element variant can.
func TestMarchWithoutDelayMissesRetentionFaults(t *testing.T) {
	fc := faults.Config{WeakCellRate: 0.005}
	host := marchHost(t, quiet(), fc)
	engine, err := NewEngine(host)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	surface, err := engine.Run(context.Background(), MarchCMinus())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(surface.Failures) != 0 {
		t.Errorf("surface March C- found %d failures; weak cells need a delay", len(surface.Failures))
	}

	delayed, err := engine.Run(context.Background(), WithRetentionDelays(MarchCMinus(), 1000))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(delayed.Failures) == 0 {
		t.Error("March C- with 1s delays missed every weak cell")
	}
}

// TestMarchMissesCouplingNPSFFindsThem is the package's reason to
// exist: solid-data March tests never place opposite values at
// intra-row neighbors, so coupling victims escape them; the
// NPSF test with detected distances catches them.
func TestMarchMissesCouplingNPSFFindsThem(t *testing.T) {
	cc := coupling.Config{
		VulnerableRate:  0.01,
		StrongLeftFrac:  0.5,
		StrongRightFrac: 0.5,
		RetentionMinMs:  100,
		RetentionMaxMs:  100,
	}
	host := marchHost(t, cc, faults.Config{})
	engine, err := NewEngine(host)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}

	delayed, err := engine.Run(context.Background(), WithRetentionDelays(MarchCMinus(), 1000))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(delayed.Failures) != 0 {
		t.Errorf("solid-data March found %d coupling failures; should find none", len(delayed.Failures))
	}

	npsf, err := engine.NPSF(context.Background(), []int{-48, -16, -8, 8, 16, 48}, 1000)
	if err != nil {
		t.Fatalf("NPSF: %v", err)
	}
	if len(npsf.Failures) == 0 {
		t.Error("NPSF with the true distances found no coupling victims")
	}
	if npsf.Tests != 32 {
		t.Errorf("NPSF used %d passes, want 32 (16 rounds x 2 polarities)", npsf.Tests)
	}
}

func TestMarchNotation(t *testing.T) {
	s := MarchCMinus().String()
	for _, frag := range []string{"March C-", "w0", "r1", "⇑", "⇓"} {
		if !strings.Contains(s, frag) {
			t.Errorf("notation %q missing %q", s, frag)
		}
	}
	d := WithRetentionDelays(MATSPlus(), 500)
	if !strings.Contains(d.String(), "Del500ms") {
		t.Errorf("delayed notation %q missing delay", d.String())
	}
	if !strings.Contains(d.Name, "+500ms") {
		t.Errorf("delayed name %q missing suffix", d.Name)
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil); err == nil {
		t.Error("nil host accepted")
	}
	host := marchHost(t, quiet(), faults.Config{})
	engine, err := NewEngine(host)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := engine.Run(context.Background(), Test{Name: "empty"}); err == nil {
		t.Error("empty test accepted")
	}
	if _, err := engine.Run(context.Background(), Test{Name: "bad", Elements: []Element{{Dir: Up, Ops: []OpKind{OpKind(99)}}}}); err == nil {
		t.Error("unknown op accepted")
	}
}

func TestDownDirectionCoversAllRows(t *testing.T) {
	// A stuck-at fault model: weak cells fail deterministically after
	// long waits; MATS+ with delays must see them regardless of
	// direction handling.
	fc := faults.Config{WeakCellRate: 0.01}
	host := marchHost(t, quiet(), fc)
	engine, err := NewEngine(host)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res, err := engine.Run(context.Background(), WithRetentionDelays(MATSPlus(), 1000))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The ⇓(r1,w0) element reads ones after the delay: weak cells
	// (charged under data 1 in true rows) must appear.
	if len(res.Failures) == 0 {
		t.Error("MATS+ with delays found nothing")
	}
	g := host.Geometry()
	for a := range res.Failures {
		if int(a.Row) >= g.Rows || int(a.Col) >= g.Cols {
			t.Fatalf("failure address out of range: %+v", a)
		}
	}
}

// rejectWrites is a fault plane that fails every row write.
type rejectWrites struct{}

func (rejectWrites) BeforeWrite(int, memctl.Row) error { return errors.New("bus down") }
func (rejectWrites) BeforeRead(int, memctl.Row) error  { return nil }

// TestNPSFReturnsFaultPlaneError: a fault-plane rejection during an
// NPSF pass surfaces as the host's *PassError through NPSF's error
// return, never as a panic.
func TestNPSFReturnsFaultPlaneError(t *testing.T) {
	mod, err := dram.NewModule(dram.ModuleConfig{
		Vendor:   scramble.VendorA,
		Chips:    1,
		Geometry: dram.Geometry{Banks: 1, Rows: 64, Cols: 1024},
		Coupling: quiet(),
		Seed:     17,
	})
	if err != nil {
		t.Fatalf("NewModule: %v", err)
	}
	host, err := memctl.NewHostWithConfig(mod, memctl.HostConfig{Faults: rejectWrites{}})
	if err != nil {
		t.Fatalf("NewHostWithConfig: %v", err)
	}
	engine, err := NewEngine(host)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res, err := engine.NPSF(context.Background(), []int{-8, 8}, 1000)
	var pe *memctl.PassError
	if !errors.As(err, &pe) {
		t.Fatalf("NPSF with a write-rejecting plane returned (%v, %v), want a *memctl.PassError", res, err)
	}
	if host.Passes() != 0 {
		t.Errorf("aborted NPSF pass counted as a test: Passes() = %d", host.Passes())
	}
}
