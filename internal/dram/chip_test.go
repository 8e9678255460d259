package dram

import (
	"testing"

	"parbor/internal/coupling"
	"parbor/internal/faults"
	"parbor/internal/scramble"
)

// quietCoupling is a coupling model with a high victim rate, fixed
// retention and no aggregate-interference tail, for deterministic
// assertions.
func quietCoupling() coupling.Config {
	return coupling.Config{
		VulnerableRate:  0.02,
		StrongLeftFrac:  0.3,
		StrongRightFrac: 0.3,
		RetentionMinMs:  100,
		RetentionMaxMs:  100,
	}
}

func testChip(t *testing.T, cc coupling.Config, fc faults.Config) *Chip {
	t.Helper()
	chip, err := NewChip(ChipConfig{
		Geometry: Geometry{Banks: 1, Rows: 64, Cols: 1024},
		Vendor:   scramble.VendorToy,
		Coupling: cc,
		Faults:   fc,
		Seed:     1234,
	})
	if err != nil {
		t.Fatalf("NewChip: %v", err)
	}
	return chip
}

// findVictim returns a (row, victim) pair matching class with both
// neighbors present, searching true-cell rows.
func findVictim(t *testing.T, c *Chip, class coupling.Class) (int, coupling.Victim) {
	t.Helper()
	for row := 0; row < c.Geometry().Rows; row += 4 { // rows 0,4,8..: anti == false
		for _, v := range c.TrueVictims(0, row) {
			if v.Class != class {
				continue
			}
			_, _, hasL, hasR := c.Mapping().Neighbors(int(v.Col))
			if hasL && hasR {
				return row, v
			}
		}
	}
	t.Fatalf("no %v victim found", class)
	return 0, coupling.Victim{}
}

func fillOnes(words []uint64) {
	for i := range words {
		words[i] = ^uint64(0)
	}
}

func TestNoFailureWithUniformContent(t *testing.T) {
	chip := testChip(t, quietCoupling(), faults.Config{})
	words := make([]uint64, chip.Geometry().Words())
	fillOnes(words)
	for row := 0; row < 8; row++ {
		chip.WriteRow(0, row, words)
	}
	chip.Wait(4000)
	got := make([]uint64, len(words))
	for row := 0; row < 8; row++ {
		chip.ReadRow(0, row, got)
		for w := range got {
			if got[w] != words[w] {
				t.Fatalf("row %d word %d flipped with uniform content: %x", row, w, got[w]^words[w])
			}
		}
	}
}

func TestNoFailureWithoutWait(t *testing.T) {
	chip := testChip(t, quietCoupling(), faults.Config{})
	row, v := findVictim(t, chip, coupling.StrongLeft)
	words := make([]uint64, chip.Geometry().Words())
	fillOnes(words)
	left, _, _, _ := chip.Mapping().Neighbors(int(v.Col))
	setBit(words, left, 0)
	chip.WriteRow(0, row, words)
	got := make([]uint64, len(words))
	chip.ReadRow(0, row, got) // no Wait in between
	if getBit(got, int(v.Col)) != 1 {
		t.Error("victim flipped without any retention wait")
	}
}

func TestStrongLeftVictimFails(t *testing.T) {
	chip := testChip(t, quietCoupling(), faults.Config{})
	row, v := findVictim(t, chip, coupling.StrongLeft)
	left, right, _, _ := chip.Mapping().Neighbors(int(v.Col))

	words := make([]uint64, chip.Geometry().Words())
	got := make([]uint64, len(words))

	// Left neighbor opposite: must fail.
	fillOnes(words)
	setBit(words, left, 0)
	chip.WriteRow(0, row, words)
	chip.Wait(500)
	chip.ReadRow(0, row, got)
	if getBit(got, int(v.Col)) != 0 {
		t.Error("strong-left victim did not flip with opposite left neighbor")
	}

	// Right neighbor opposite only: must NOT fail.
	fillOnes(words)
	setBit(words, right, 0)
	chip.WriteRow(0, row, words)
	chip.Wait(500)
	chip.ReadRow(0, row, got)
	if getBit(got, int(v.Col)) != 1 {
		t.Error("strong-left victim flipped with only right neighbor opposite")
	}
}

func TestStrongVictimRespectsRetentionThreshold(t *testing.T) {
	chip := testChip(t, quietCoupling(), faults.Config{})
	row, v := findVictim(t, chip, coupling.StrongLeft)
	left, _, _, _ := chip.Mapping().Neighbors(int(v.Col))

	words := make([]uint64, chip.Geometry().Words())
	fillOnes(words)
	setBit(words, left, 0)
	chip.WriteRow(0, row, words)
	chip.Wait(50) // below the 100 ms retention threshold
	got := make([]uint64, len(words))
	chip.ReadRow(0, row, got)
	if getBit(got, int(v.Col)) != 1 {
		t.Error("victim flipped before its retention threshold")
	}
	chip.Wait(100) // total 150 ms, past the threshold
	chip.ReadRow(0, row, got)
	if getBit(got, int(v.Col)) != 0 {
		t.Error("victim did not flip after its retention threshold")
	}
}

func TestWeakVictimNeedsBothNeighbors(t *testing.T) {
	chip := testChip(t, quietCoupling(), faults.Config{})
	row, v := findVictim(t, chip, coupling.Weak)
	left, right, _, _ := chip.Mapping().Neighbors(int(v.Col))

	words := make([]uint64, chip.Geometry().Words())
	got := make([]uint64, len(words))

	for _, tc := range []struct {
		name     string
		zeroL    bool
		zeroR    bool
		wantFail bool
	}{
		{name: "left only", zeroL: true, wantFail: false},
		{name: "right only", zeroR: true, wantFail: false},
		{name: "both", zeroL: true, zeroR: true, wantFail: true},
	} {
		fillOnes(words)
		if tc.zeroL {
			setBit(words, left, 0)
		}
		if tc.zeroR {
			setBit(words, right, 0)
		}
		chip.WriteRow(0, row, words)
		chip.Wait(500)
		chip.ReadRow(0, row, got)
		failed := getBit(got, int(v.Col)) == 0
		if failed != tc.wantFail {
			t.Errorf("%s: failed = %v, want %v", tc.name, failed, tc.wantFail)
		}
	}
}

func TestAntiRowPolarity(t *testing.T) {
	chip := testChip(t, quietCoupling(), faults.Config{})
	// Find a strong-left victim in an anti row (rows 2,3 mod 4).
	var (
		row   = -1
		v     coupling.Victim
		found bool
	)
	for r := 2; r < chip.Geometry().Rows && !found; r += 4 {
		for _, cand := range chip.TrueVictims(0, r) {
			_, _, hasL, hasR := chip.Mapping().Neighbors(int(cand.Col))
			if cand.Class == coupling.StrongLeft && cand.Surround == 0 && hasL && hasR {
				row, v, found = r, cand, true
				break
			}
		}
	}
	if !found {
		t.Fatal("no anti-row strong-left victim found")
	}
	left, _, _, _ := chip.Mapping().Neighbors(int(v.Col))

	// In an anti row, data 0 is the charged state: all-zeros with the
	// left neighbor at 1 is the worst-case pattern.
	words := make([]uint64, chip.Geometry().Words())
	setBit(words, left, 1)
	chip.WriteRow(0, row, words)
	chip.Wait(500)
	got := make([]uint64, len(words))
	chip.ReadRow(0, row, got)
	if getBit(got, int(v.Col)) != 1 {
		t.Error("anti-row victim did not flip from 0 to 1 under worst-case pattern")
	}

	// The inverse content (victim discharged) must not fail.
	fillOnes(words)
	setBit(words, left, 0)
	chip.WriteRow(0, row, words)
	chip.Wait(500)
	chip.ReadRow(0, row, got)
	if getBit(got, int(v.Col)) != 1 {
		t.Error("discharged anti-row victim flipped")
	}
}

func TestSurroundGating(t *testing.T) {
	cc := quietCoupling()
	cc.SurroundWeights = []float64{0, 0, 1} // every victim needs surround level 2
	chip := testChip(t, cc, faults.Config{})
	row, v := findVictim(t, chip, coupling.StrongLeft)
	left, _, _, _ := chip.Mapping().Neighbors(int(v.Col))

	words := make([]uint64, chip.Geometry().Words())
	got := make([]uint64, len(words))

	// Only the immediate neighbor opposite: surround cells are still
	// charged, so the victim must survive.
	fillOnes(words)
	setBit(words, left, 0)
	chip.WriteRow(0, row, words)
	chip.Wait(500)
	chip.ReadRow(0, row, got)
	if getBit(got, int(v.Col)) != 1 {
		t.Error("surround-gated victim flipped with only the immediate neighbor opposite")
	}

	// Everything except the victim opposite: worst case, must fail.
	for i := range words {
		words[i] = 0
	}
	setBit(words, int(v.Col), 1)
	chip.WriteRow(0, row, words)
	chip.Wait(500)
	chip.ReadRow(0, row, got)
	if getBit(got, int(v.Col)) != 0 {
		t.Error("surround-gated victim survived the all-opposite worst case")
	}
}

func TestWeakKindCellFailsRegardlessOfNeighbors(t *testing.T) {
	fc := faults.Config{WeakCellRate: 0.01}
	chip := testChip(t, coupling.Config{VulnerableRate: 0, RetentionMinMs: 1, RetentionMaxMs: 1}, fc)
	// Uniform all-charged content; weak cells must still fail on a
	// long wait.
	words := make([]uint64, chip.Geometry().Words())
	fillOnes(words)
	flips := 0
	got := make([]uint64, len(words))
	for row := 0; row < chip.Geometry().Rows; row += 4 {
		chip.WriteRow(0, row, words)
	}
	chip.Wait(4000)
	for row := 0; row < chip.Geometry().Rows; row += 4 {
		chip.ReadRow(0, row, got)
		for w := range got {
			if got[w] != words[w] {
				flips++
			}
		}
	}
	if flips == 0 {
		t.Error("no weak-cell failures with a 1% weak-cell rate on long wait")
	}
}

func TestChipDeterminism(t *testing.T) {
	mk := func() *Chip {
		return testChip(t, quietCoupling(), faults.DefaultConfig())
	}
	a, b := mk(), mk()
	words := make([]uint64, a.Geometry().Words())
	fillOnes(words)
	words[3] = 0x0123456789abcdef
	ga := make([]uint64, len(words))
	gb := make([]uint64, len(words))
	for row := 0; row < 16; row++ {
		a.WriteRow(0, row, words)
		b.WriteRow(0, row, words)
	}
	a.Wait(4000)
	b.Wait(4000)
	for row := 0; row < 16; row++ {
		a.ReadRow(0, row, ga)
		b.ReadRow(0, row, gb)
		for w := range ga {
			if ga[w] != gb[w] {
				t.Fatalf("row %d word %d differs between identically seeded chips", row, w)
			}
		}
	}
}

func TestNewChipErrors(t *testing.T) {
	base := ChipConfig{
		Geometry: Geometry{Banks: 1, Rows: 4, Cols: 1024},
		Vendor:   scramble.VendorA,
		Coupling: quietCoupling(),
	}
	tests := []struct {
		name   string
		mutate func(*ChipConfig)
	}{
		{name: "bad vendor", mutate: func(c *ChipConfig) { c.Vendor = scramble.Vendor(77) }},
		{name: "cols not multiple of chunk", mutate: func(c *ChipConfig) { c.Geometry.Cols = 64 }},
		{name: "cols exceed address space", mutate: func(c *ChipConfig) { c.Geometry.Cols = MaxCols + 128 }},
		{name: "flat rows exceed address space", mutate: func(c *ChipConfig) { c.Geometry.Banks = 2; c.Geometry.Rows = MaxFlatRows }},
		{name: "bad coupling", mutate: func(c *ChipConfig) { c.Coupling.VulnerableRate = 2 }},
		{name: "bad faults", mutate: func(c *ChipConfig) { c.Faults.VRTRate = -1 }},
		{name: "negative banks", mutate: func(c *ChipConfig) { c.Geometry.Banks = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mutate(&cfg)
			if _, err := NewChip(cfg); err == nil {
				t.Error("NewChip succeeded, want error")
			}
		})
	}
}

func TestNewChipDefaultGeometry(t *testing.T) {
	chip, err := NewChip(ChipConfig{
		Vendor:   scramble.VendorA,
		Coupling: coupling.DefaultConfig(),
	})
	if err != nil {
		t.Fatalf("NewChip: %v", err)
	}
	if got, want := chip.Geometry(), ExperimentGeometry(); got != want {
		t.Errorf("default geometry = %+v, want %+v", got, want)
	}
}

// TestPaddedGeometryRoundTrip: with Cols=96 the last storage word has
// 32 padding bits. Write/read must round-trip the real cells, and the
// injectors (soft error targets a column drawn from [0, Cols)) must
// never flip a padding bit.
func TestPaddedGeometryRoundTrip(t *testing.T) {
	chip, err := NewChip(ChipConfig{
		Geometry: Geometry{Banks: 1, Rows: 8, Cols: 96},
		Vendor:   scramble.VendorToy,
		Coupling: coupling.Config{RetentionMinMs: 1, RetentionMaxMs: 1},
		Faults:   faults.Config{SoftErrorPerRowRead: 1},
		Seed:     77,
	})
	if err != nil {
		t.Fatalf("NewChip: %v", err)
	}
	g := chip.Geometry()
	if g.Words() != 2 {
		t.Fatalf("Words() = %d for Cols=96, want 2", g.Words())
	}
	words := []uint64{0x0123456789abcdef, 0xffffffff0000aaaa} // garbage in padding bits
	got := make([]uint64, g.Words())
	chip.WriteRow(0, 0, words)
	chip.ReadRow(0, 0, got)
	// No wait: elapsed 0, injectors off, the read is a pure copy.
	if got[0] != words[0] || got[1] != words[1] {
		t.Fatalf("padded row did not round-trip: %x, want %x", got, words)
	}
	chip.Wait(100)
	chip.ReadRow(0, 0, got)
	// The guaranteed soft error must land on a real cell: any flip in
	// the padding bits means the injector drew a column >= Cols.
	mask := g.LastWordMask()
	if diff := (got[1] ^ words[1]) &^ mask; diff != 0 {
		t.Fatalf("injector flipped padding bits: %x", diff)
	}
	if (got[0]^words[0])|((got[1]^words[1])&mask) == 0 {
		t.Fatal("SoftErrorPerRowRead=1 produced no flip")
	}
}

func TestModule(t *testing.T) {
	mod, err := NewModule(ModuleConfig{
		Name:     "A1",
		Vendor:   scramble.VendorA,
		Geometry: Geometry{Banks: 1, Rows: 8, Cols: 1024},
		Coupling: quietCoupling(),
		Seed:     9,
	})
	if err != nil {
		t.Fatalf("NewModule: %v", err)
	}
	if mod.Chips() != 8 {
		t.Errorf("Chips() = %d, want 8", mod.Chips())
	}
	if mod.Name() != "A1" {
		t.Errorf("Name() = %q, want A1", mod.Name())
	}
	if mod.Vendor() != scramble.VendorA {
		t.Errorf("Vendor() = %v", mod.Vendor())
	}
	// Sibling chips must have different process variation.
	v0 := mod.Chip(0).TrueVictims(0, 0)
	v1 := mod.Chip(1).TrueVictims(0, 0)
	same := len(v0) == len(v1)
	if same {
		for i := range v0 {
			if v0[i] != v1[i] {
				same = false
				break
			}
		}
	}
	if same && len(v0) > 0 {
		t.Error("chips 0 and 1 drew identical victim populations")
	}
	mod.Wait(100)
	if got := mod.Chip(3).Now(); got != 100 {
		t.Errorf("chip clock = %v, want 100", got)
	}
}

func TestModuleErrors(t *testing.T) {
	if _, err := NewModule(ModuleConfig{Vendor: scramble.Vendor(50)}); err == nil {
		t.Error("NewModule with bad vendor succeeded")
	}
	if _, err := NewModule(ModuleConfig{Vendor: scramble.VendorA, Chips: -1}); err == nil {
		t.Error("NewModule with negative chips succeeded")
	}
}

func TestGeometryHelpers(t *testing.T) {
	g := Geometry{Banks: 2, Rows: 16, Cols: 1024}
	if got := g.Words(); got != 16 {
		t.Errorf("Words() = %d, want 16", got)
	}
	if got := g.RowCount(); got != 32 {
		t.Errorf("RowCount() = %d, want 32", got)
	}
	if got := g.Bits(); got != 32*1024 {
		t.Errorf("Bits() = %d, want %d", got, 32*1024)
	}
	// Cols need not be a multiple of 64: the last word is padded.
	padded := Geometry{Banks: 1, Rows: 1, Cols: 63}
	if err := padded.Validate(); err != nil {
		t.Errorf("Validate rejected Cols=63: %v", err)
	}
	if got := padded.Words(); got != 1 {
		t.Errorf("Words() = %d for Cols=63, want 1", got)
	}
	if got := padded.LastWordMask(); got != (1<<63)-1 {
		t.Errorf("LastWordMask() = %x for Cols=63, want %x", got, uint64(1<<63)-1)
	}
	if got := g.LastWordMask(); got != ^uint64(0) {
		t.Errorf("LastWordMask() = %x for Cols=1024, want all ones", got)
	}
}

// TestUnwrittenRowsReadZero: the cell array is allocated on first
// access, and a row never written reads back as all zeros, whether the
// first access is that read or a write to another row.
func TestUnwrittenRowsReadZero(t *testing.T) {
	c := testChip(t, quietCoupling(), faults.Config{})
	buf := make([]uint64, c.Geometry().Words())
	for i := range buf {
		buf[i] = ^uint64(0)
	}
	c.ReadRow(0, 3, buf)
	for w, v := range buf {
		if v != 0 {
			t.Fatalf("fresh chip, row 3 word %d = %#x, want 0", w, v)
		}
	}
	fillOnes(buf)
	c.WriteRow(0, 4, buf)
	c.ReadRow(0, 5, buf)
	for w, v := range buf {
		if v != 0 {
			t.Fatalf("row 5 word %d = %#x after a write to row 4, want 0", w, v)
		}
	}
}
