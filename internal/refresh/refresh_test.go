package refresh

import (
	"math"
	"testing"
)

func newPolicy(t *testing.T, kind Kind, rows int64) *Policy {
	t.Helper()
	p, err := New(Config{
		Kind:             kind,
		TotalRows:        rows,
		WeakRowFrac:      0.164,
		InitialMatchProb: 0.165,
		Seed:             7,
	})
	if err != nil {
		t.Fatalf("New(%v): %v", kind, err)
	}
	return p
}

func TestUniformRefreshesEverything(t *testing.T) {
	p := newPolicy(t, Uniform, 10000)
	if p.FastRows() != 10000 {
		t.Errorf("FastRows = %d, want 10000", p.FastRows())
	}
	if got := p.RowsDuePerTick(8192, 4); math.Abs(got-10000.0/8192) > 1e-9 {
		t.Errorf("RowsDuePerTick = %v, want %v", got, 10000.0/8192)
	}
}

func TestRAIDRFastFraction(t *testing.T) {
	p := newPolicy(t, RAIDR, 100000)
	frac := float64(p.FastRows()) / 100000
	if math.Abs(frac-0.164) > 0.01 {
		t.Errorf("RAIDR fast fraction = %v, want about 0.164", frac)
	}
	var weak int64
	for row := int64(0); row < 100000; row++ {
		if p.isWeakDraw(row) {
			weak++
		}
	}
	if weak != p.FastRows() {
		t.Errorf("RAIDR fast rows (%d) != weak rows (%d)", p.FastRows(), weak)
	}
}

func TestDCREFFastFraction(t *testing.T) {
	p := newPolicy(t, DCREF, 100000)
	frac := float64(p.FastRows()) / 100000
	// 16.4% weak rows x 16.5% matched = 2.7% of all rows (the paper's
	// measured average).
	if math.Abs(frac-0.027) > 0.006 {
		t.Errorf("DC-REF fast fraction = %v, want about 0.027", frac)
	}
}

// TestPaperRefreshArithmetic verifies the refresh-reduction numbers
// of Section 8 follow from the policies: DC-REF issues 73% fewer
// refreshes than baseline and 27.6% fewer than RAIDR.
func TestPaperRefreshArithmetic(t *testing.T) {
	const rows = 200000
	base := newPolicy(t, Uniform, rows)
	raidr := newPolicy(t, RAIDR, rows)
	dcref := newPolicy(t, DCREF, rows)

	rb := base.RowsDuePerTick(8192, 4)
	rr := raidr.RowsDuePerTick(8192, 4)
	rd := dcref.RowsDuePerTick(8192, 4)

	if red := 1 - rd/rb; math.Abs(red-0.73) > 0.02 {
		t.Errorf("DC-REF vs baseline refresh reduction = %.3f, want about 0.73", red)
	}
	if red := 1 - rd/rr; math.Abs(red-0.276) > 0.03 {
		t.Errorf("DC-REF vs RAIDR refresh reduction = %.3f, want about 0.276", red)
	}
}

func TestOnWriteTogglesFastSet(t *testing.T) {
	p := newPolicy(t, DCREF, 50000)
	// Find a weak row.
	weakRow := int64(-1)
	for row := int64(0); row < 50000; row++ {
		if p.isWeakDraw(row) {
			weakRow = row
			break
		}
	}
	if weakRow < 0 {
		t.Fatal("no weak row found")
	}
	// Writing definitely-matching content forces fast refresh.
	before := p.FastRows()
	p.OnWrite(weakRow, 1.0, 1)
	if !p.matched(weakRow) {
		t.Error("row not matched after matchProb=1 write")
	}
	// Writing definitely-benign content drops it to slow.
	p.OnWrite(weakRow, 0.0, 2)
	if p.matched(weakRow) {
		t.Error("row still matched after matchProb=0 write")
	}
	if p.FastRows() > before {
		t.Errorf("fast rows grew from %d to %d after benign write", before, p.FastRows())
	}
}

func TestOnWriteIgnoresStrongRows(t *testing.T) {
	p := newPolicy(t, DCREF, 50000)
	strongRow := int64(-1)
	for row := int64(0); row < 50000; row++ {
		if !p.isWeakDraw(row) {
			strongRow = row
			break
		}
	}
	before := p.FastRows()
	p.OnWrite(strongRow, 1.0, 1)
	if p.FastRows() != before {
		t.Error("write to strong row changed the fast set")
	}
}

func TestOnWriteNoopForOtherPolicies(t *testing.T) {
	for _, kind := range []Kind{Uniform, RAIDR} {
		p := newPolicy(t, kind, 10000)
		before := p.FastRows()
		for row := int64(0); row < 100; row++ {
			p.OnWrite(row, 1.0, uint64(row))
		}
		if p.FastRows() != before {
			t.Errorf("%v: OnWrite changed fast set", kind)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Kind: Uniform, TotalRows: 0},
		{Kind: Uniform, TotalRows: 10, WeakRowFrac: -1},
		{Kind: Uniform, TotalRows: 10, InitialMatchProb: 2},
		{Kind: Kind(9), TotalRows: 10},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestKindString(t *testing.T) {
	if Uniform.String() != "baseline-64ms" || RAIDR.String() != "RAIDR" || DCREF.String() != "DC-REF" {
		t.Error("unexpected kind names")
	}
	if Kind(42).String() != "Kind(42)" {
		t.Errorf("Kind(42).String() = %q", Kind(42).String())
	}
	if len(Kinds()) != 3 {
		t.Error("Kinds() should list three policies")
	}
}
