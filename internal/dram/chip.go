// Package dram simulates DRAM chips and modules at cell-array
// granularity, faithfully enough to evaluate system-level detection
// of data-dependent failures: vendor-scrambled address mapping,
// coupling-vulnerable victim cells, true/anti cell polarity,
// retention gating, and the random-failure modes that real chips
// exhibit (soft errors, VRT, marginal cells, remapped columns).
//
// The test host (package memctl) talks to a chip exclusively through
// WriteRow / Wait / ReadRow — exactly the interface a real memory
// controller offers — so the PARBOR algorithm in package core cannot
// accidentally peek at the scrambling or at cell ground truth.
package dram

import (
	"fmt"

	"parbor/internal/coupling"
	"parbor/internal/faults"
	"parbor/internal/obs"
	"parbor/internal/rng"
	"parbor/internal/scramble"
)

// ChipConfig assembles everything needed to instantiate a chip.
type ChipConfig struct {
	// Geometry is the addressable layout. Defaults to
	// ExperimentGeometry when zero.
	Geometry Geometry
	// Vendor selects the address-scrambling profile.
	Vendor scramble.Vendor
	// Mapping, when non-nil, overrides Vendor with a custom
	// system-to-physical address mapping (see scramble.FromSegments).
	Mapping *scramble.Mapping
	// Coupling parameterizes the data-dependent failure model.
	Coupling coupling.Config
	// Faults parameterizes the random-failure injectors.
	Faults faults.Config
	// Seed makes the chip's process variation reproducible.
	Seed uint64
	// Index distinguishes sibling chips within a module so that they
	// draw independent process variation from the same seed.
	Index int
	// Recorder, when non-nil, receives the chip's DRAM commands: an
	// activate plus a write or read per row access, delivered in
	// batches by FlushCommands, and one refresh per refresh epoch.
	// Recording is passive: results are bit-identical with or without
	// it.
	Recorder obs.Recorder
}

// Chip is one simulated DRAM chip.
//
// Concurrency contract: a single Chip is not safe for concurrent use
// — all of its methods must be serialized by the caller. Distinct
// Chips, however, share no mutable state (the scramble.Mapping they
// may share is immutable and documented safe for concurrent use), so
// different chips of the same module may be driven from different
// goroutines simultaneously. The test host (package memctl) relies on
// this to shard full-module passes one-worker-per-chip; experiments
// parallelize across chips, never within one.
type Chip struct {
	geom    Geometry
	mapping *scramble.Mapping
	cc      coupling.Config
	fc      faults.Config
	root    *rng.Source
	index   int

	words   int
	data    []uint64  // all rows, flattened; nil until a row is first accessed (see rowData)
	writeAt []float64 // per flat row: sim time (ms) of last write
	nowMs   float64
	pass    uint64 // incremented on every Wait; seeds per-pass noise

	// Lazy auto-refresh bookkeeping: rather than rewriting writeAt for
	// every row on each AutoRefresh (O(rows in chip) per pass), the
	// chip records the time of the latest refresh and the set of rows
	// that refresh skipped. ReadRow consults them to reconstruct the
	// row's effective last-charge time (see chargeTime).
	//
	// The paused set is a packed bitset plus the list of set rows:
	// chargeTime (one call per row read) does a word-indexed bit test,
	// and AutoRefresh clears the previous epoch through the list, so
	// installing an epoch stays O(rows excluded), never O(rows in
	// chip). An earlier map[int]struct{} representation put a map
	// lookup (hash + probe) on every row read.
	lastRefreshMs float64
	pausedBits    []uint64 // rows excluded from the latest refresh
	pausedList    []int    // the set bits of pausedBits

	meta []*rowMeta // lazy per flat row
	// planes is the bit-parallel evaluation state per flat row —
	// word-wide masks by class/retention-tier/neighbor distance (see
	// planes.go), derived from the row's victims and fault cells at
	// materialization time and immutable afterwards. It lives in a flat
	// value slice, not inside rowMeta: the read path consults it for
	// every row of a sweep, and rows are read in ascending order, so a
	// contiguous array turns the per-row metadata access into a
	// prefetchable sequential stream instead of a pointer chase through
	// scattered rowMeta allocations. Entries of unmaterialized rows are
	// zero; the read path only consults rows rowMetaFor has populated.
	planes []rowPlanes
	// arena backs the slices inside planes: rows materialize in sweep
	// order, so block allocation lays consecutive rows' entries out
	// contiguously for the prefetcher (see planeArena).
	arena planeArena
	remap map[int32]struct{} // remapped system columns (chip-wide)

	// Cached label-children of root. The hot paths (one draw per row
	// read, per VRT tick, per remap/marginal event) derive their
	// per-event streams with At(n) off these instead of SplitN, which
	// skips both the label hash and the per-draw heap allocation.
	// Stream-identical to the SplitN calls they replace (rng contract,
	// TestValueVariantsMatchPointerVariants).
	//
	// Invariant (per-event keying): every stochastic per-event draw is
	// keyed by a chain of At derivations, one field per link —
	// At(pass).At(flat row).At(column) — never by fields packed into a
	// single integer. An earlier packing (pass<<32 | flat<<13 | col)
	// silently collided for geometries with >= 2^19 flat rows or
	// >= 2^13 columns, correlating draws across rows and passes; the
	// chained form is collision-free for every geometry
	// Geometry.Validate accepts (TestLargeGeometryDrawsIndependent).
	// Keyed draws are also position-independent: no draw's value
	// depends on how many other draws happened first, which is what
	// makes lazy row materialization and checkpoint/resume
	// unobservable (TestVRTTogglesIgnoreMaterializationOrder).
	vrtSrc      rng.Source // "vrt-toggle"
	softSrc     rng.Source // "soft"
	marginalSrc rng.Source // "marginal"
	remapSrc    rng.Source // "remap-fail"
	rowSrc      rng.Source // "row"

	// rec, when non-nil, receives command-accounting events. It must
	// be safe for concurrent use: sibling chips flush into the same
	// Recorder from their per-chip worker goroutines.
	rec obs.Recorder
	// Row writes and reads issued since the last FlushCommands. They
	// are plain fields, not recorder calls, because they are bumped on
	// every row access; the owner of the chip delivers them in one
	// batch (see FlushCommands). Every row access activates its row
	// once, so the activate count is their sum.
	pendWrites, pendReads uint64
}

// vcell is a coupling victim with its physical neighborhood resolved
// into system addresses once, at row materialization time.
type vcell struct {
	col         int32
	class       coupling.Class
	retentionMs float32
	remapped    bool
	left        int32   // system address of physical left neighbor, -1 if none
	right       int32   // system address of physical right neighbor, -1 if none
	surround    []int32 // cells beyond the immediate neighbors that must be opposite
}

type rowMeta struct {
	raw     []coupling.Victim // ground-truth victims, as drawn from the RNG
	victims []vcell
	fcells  []faults.Cell
}

// Fault-kind retention thresholds (milliseconds): leaky VRT cells fail
// past one nominal refresh interval, marginal cells only on long
// waits, weak cells deterministically on long waits.
const (
	vrtRetentionMs      = 64
	marginalRetentionMs = 200
	weakRetentionMs     = 300
)

// NewChip builds a chip. The chip's process variation (victim
// placement, classes, retention thresholds, random-fault cells,
// remapped columns) is fully determined by cfg.Seed and cfg.Index.
func NewChip(cfg ChipConfig) (*Chip, error) {
	if cfg.Geometry == (Geometry{}) {
		cfg.Geometry = ExperimentGeometry()
	}
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Coupling.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, err
	}
	mapping := cfg.Mapping
	if mapping == nil {
		var err error
		mapping, err = scramble.New(cfg.Vendor)
		if err != nil {
			return nil, err
		}
	}
	if cfg.Geometry.Cols%mapping.ChunkBits() != 0 {
		return nil, fmt.Errorf("dram: Cols = %d is not a multiple of the %d-bit scrambling chunk",
			cfg.Geometry.Cols, mapping.ChunkBits())
	}
	root := rng.New(cfg.Seed).SplitN("chip", uint64(cfg.Index))
	c := &Chip{
		geom:    cfg.Geometry,
		mapping: mapping,
		cc:      cfg.Coupling,
		fc:      cfg.Faults,
		root:    root,
		index:   cfg.Index,
		words:   cfg.Geometry.Words(),
		writeAt: make([]float64, cfg.Geometry.RowCount()),
		meta:    make([]*rowMeta, cfg.Geometry.RowCount()),
		planes:  make([]rowPlanes, cfg.Geometry.RowCount()),
		rec:     cfg.Recorder,

		pausedBits: make([]uint64, (cfg.Geometry.RowCount()+63)/64),
	}
	c.remap = cfg.Faults.RemappedColumns(root.Split("remap"), cfg.Geometry.Cols)
	c.vrtSrc = root.Child("vrt-toggle")
	c.softSrc = root.Child("soft")
	c.marginalSrc = root.Child("marginal")
	c.remapSrc = root.Child("remap-fail")
	c.rowSrc = root.Child("row")
	return c, nil
}

// Geometry returns the chip's addressable layout.
func (c *Chip) Geometry() Geometry { return c.geom }

// Vendor returns the chip's scrambling profile.
func (c *Chip) Vendor() scramble.Vendor { return c.mapping.Vendor() }

// Mapping exposes the ground-truth address mapping. It exists for
// experiment validation only; the detection algorithm must never
// consult it.
func (c *Chip) Mapping() *scramble.Mapping { return c.mapping }

// antiRow reports whether the row stores data inverted (an "anti
// cell" row, in which data '1' is the discharged state). Real chips
// alternate polarity between sense-amplifier stripes; we model it per
// row pair.
func (c *Chip) antiRow(row int) bool { return (row>>1)&1 == 1 }

// WriteRow stores src (Geometry().Words() words) into the row and
// restores the row's cells to full charge. Its activate and write
// commands reach the recorder at the next FlushCommands.
//
//parbor:hotpath
func (c *Chip) WriteRow(bank, row int, src []uint64) {
	idx := c.geom.rowIndex(bank, row)
	copy(c.rowData(idx), src)
	c.writeAt[idx] = c.nowMs
	c.pendWrites++
}

// FlushCommands delivers the activate, write and read commands of the
// row accesses since the previous flush to the attached recorder (and
// drops them when none is attached). Row accesses only count; the
// chip's owner flushes once per batch of accesses — the test host
// does at the end of every per-chip shard, on every exit path — so a
// sweep costs a few recorder calls instead of several per row, and
// totals are exact at every pass boundary. Like every Chip method it
// must be serialized with the chip's other calls.
func (c *Chip) FlushCommands() {
	w, r := c.pendWrites, c.pendReads
	if w|r == 0 {
		return
	}
	c.pendWrites, c.pendReads = 0, 0
	if c.rec == nil {
		return
	}
	c.rec.Command(obs.CmdActivate, w+r)
	c.rec.Command(obs.CmdWrite, w)
	c.rec.Command(obs.CmdRead, r)
}

// rowData returns the stored words of flat row idx. The cell array
// (Geometry().Words() words per row, the bulk of a chip's memory) is
// allocated on the first row access rather than in NewChip, so
// building a module allocates only its bookkeeping. Without this a
// module build allocates megabytes in one burst, and in a loop that
// builds and tests modules back to back that burst is where the heap
// reaches the collector's goal, so construction pays for a GC cycle
// with the previous module's garbage (mark assist and sweeping).
// Rows never written read as zeros either way.
func (c *Chip) rowData(idx int) []uint64 {
	if c.data == nil {
		c.data = make([]uint64, c.geom.RowCount()*c.words)
	}
	return c.data[idx*c.words : (idx+1)*c.words]
}

// Wait advances simulated time by ms milliseconds. Time only moves
// through Wait, so a write-wait-read sequence has a well-defined
// retention interval. Each Wait also begins a new "pass" for the
// random-failure injectors; the per-pass VRT leaky states are not
// drawn here but keyed per (pass, row, cell) at read time, so the
// draw a cell sees is independent of which rows happen to be
// materialized — the property checkpoint/resume relies on (an
// earlier sequential per-pass stream diverged after a resume, whose
// empty meta cache changed the draw order).
//
//parbor:hotpath
func (c *Chip) Wait(ms float64) {
	if ms < 0 {
		panic("dram: negative wait")
	}
	c.nowMs += ms
	c.pass++
}

// rowMetaFor lazily materializes the per-row cell population, resolves
// each victim's physical neighborhood through the mapping, and derives
// the row's bit-parallel mask planes. It is the memoization gateway
// between the allocating one-time construction (buildRowPlanes) and
// the zero-allocation read path: ReadRow may call it per read, but the
// construction below runs once per row for the life of the chip.
//
//parbor:planecache
func (c *Chip) rowMetaFor(flat int) *rowMeta {
	if m := c.meta[flat]; m != nil {
		return m
	}
	src := c.rowSrc.At(uint64(flat))
	raw := c.cc.RowVictims(src.Split("victims"), c.geom.Cols)
	m := &rowMeta{
		raw:     raw,
		victims: make([]vcell, 0, len(raw)),
		fcells:  c.fc.RowCells(src.Split("faults"), c.geom.Cols),
	}
	for _, v := range raw {
		vc := vcell{
			col:         v.Col,
			class:       v.Class,
			retentionMs: v.RetentionMs,
			left:        -1,
			right:       -1,
		}
		if _, ok := c.remap[v.Col]; ok {
			vc.remapped = true
		} else {
			l, r, hasL, hasR := c.mapping.Neighbors(int(v.Col))
			if hasL {
				vc.left = int32(l)
			}
			if hasR {
				vc.right = int32(r)
			}
			vc.surround = c.surroundCells(int(v.Col), int(v.Surround))
		}
		m.victims = append(m.victims, vc)
	}
	c.planes[flat] = c.buildRowPlanes(m)
	c.meta[flat] = m
	return m
}

// surroundCells walks the physical segment outward from col and
// returns the system addresses at physical distance 2..s+1 on each
// side (the immediate neighbors at distance 1 are handled by the
// victim's class condition).
func (c *Chip) surroundCells(col, s int) []int32 {
	if s == 0 {
		return nil
	}
	var out []int32
	walk := func(leftward bool) {
		cur := col
		for step := 0; step < s+1; step++ {
			l, r, hasL, hasR := c.mapping.Neighbors(cur)
			var next int
			if leftward {
				if !hasL {
					return
				}
				next = l
			} else {
				if !hasR {
					return
				}
				next = r
			}
			if step >= 1 { // skip the immediate neighbor
				out = append(out, int32(next))
			}
			cur = next
		}
	}
	walk(true)
	walk(false)
	return out
}

// ReadRow reads the row into dst, applying every failure mode whose
// conditions have been met since the row was last written. The stored
// data is not modified (the host rewrites rows between passes, as a
// real test host does). Its activate and read commands reach the
// recorder at the next FlushCommands.
//
//parbor:hotpath
func (c *Chip) ReadRow(bank, row int, dst []uint64) {
	idx := c.geom.rowIndex(bank, row)
	stored := c.rowData(idx)
	copy(dst, stored)
	c.readRowFaults(row, idx, stored, dst)
}

// ReadRowDelta performs the same read as ReadRow — same failure
// evaluation, same keyed draws, same observability commands — but
// instead of materializing the read-back data it toggles only the
// failing bits into delta and returns the toggle count. delta must
// arrive all-zero; a zero return guarantees it was left untouched, so
// a caller that clears the words it consumes keeps a standing
// zero-delta scratch and pays nothing at all for clean rows. The
// read-back contents are stored XOR delta; a diff of the read against
// the last-written data is exactly the nonzero bits of delta, which
// is what makes this the fast path of the host's write-then-read
// sweeps (memctl reads every row it just wrote, so the copy and the
// word-by-word compare of the classic path cancel out).
//
//parbor:hotpath
func (c *Chip) ReadRowDelta(bank, row int, delta []uint64) int {
	idx := c.geom.rowIndex(bank, row)
	return c.readRowFaults(row, idx, c.rowData(idx), delta)
}

// ReadCell performs the same read as ReadRow — same keyed draws, same
// activate and read command — but evaluates only the failure modes
// that can toggle the cell at col, and returns the bit read back
// there: the stored bit XOR the parity of every toggle at col. Two
// failure modes firing on one cell cancel, exactly as they do in the
// row read. Every draw is keyed per (pass, row, column), so skipping
// the row's other cells changes no draw; the differential suite
// (TestReadCellMatchesReadRow) holds it to ReadRow bit for bit. It is
// the read half of a probe pass (memctl.Host.Probe), which asks one
// question per row: did that one cell flip?
//
//parbor:hotpath
func (c *Chip) ReadCell(bank, row, col int) uint64 {
	idx := c.geom.rowIndex(bank, row)
	stored := c.rowData(idx)
	bit := getBit(stored, col)
	elapsed := c.beginRead(idx)
	if elapsed <= 0 {
		return bit
	}
	m := c.rowMetaFor(idx)
	if scalarReadPath {
		return bit ^ c.readCellScalar(row, idx, col, elapsed, stored, m)
	}
	return bit ^ c.readCellPlanes(row, idx, col, elapsed, stored, m)
}

// beginRead counts one row read (see FlushCommands) and returns the
// retention time the row has accumulated; nothing can fail unless it
// is positive.
func (c *Chip) beginRead(idx int) float64 {
	c.pendReads++
	return c.nowMs - c.chargeTime(idx)
}

// readRowFaults is the shared read core: it counts the access (see
// FlushCommands), evaluates every failure mode of the row against
// stored, toggles the failing bits into dst, and returns the toggle
// count. dst may be a copy of stored (ReadRow) or a zeroed delta
// buffer (ReadRowDelta) — every predicate reads charge state from
// stored only, so the two produce the same toggle set.
func (c *Chip) readRowFaults(row, idx int, stored, dst []uint64) int {
	elapsed := c.beginRead(idx)
	if elapsed <= 0 {
		return 0
	}
	m := c.rowMetaFor(idx)
	if scalarReadPath {
		// Build-tagged differential oracle (go build -tags parborscalar):
		// the original per-cell evaluation, kept always-compiled so the
		// proof suite can hold the two paths to bit-identity.
		return c.readRowScalar(row, idx, elapsed, stored, dst, m)
	}
	return c.readRowPlanes(row, idx, elapsed, stored, dst, m)
}

// readRowScalar is the scalar reference evaluation: one victim, one
// fault cell at a time, probing individual bits. The mask-plane path
// (readRowPlanes) must flip exactly the bits this flips — it is the
// oracle of the differential suite in planes_test.go and the whole
// simulation under the parborscalar build tag. Returns the toggle
// count, mirroring readRowPlanes.
func (c *Chip) readRowScalar(row, flat int, elapsed float64, stored, dst []uint64, m *rowMeta) int {
	anti := c.antiRow(row)
	n := 0
	// Iterate by index: vcell is ~48 bytes and this loop runs for
	// every victim of every row read, so a by-value range would spend
	// a large share of the read path copying structs.
	for i := range m.victims {
		v := &m.victims[i]
		if elapsed < float64(v.retentionMs) {
			continue
		}
		if c.victimFails(stored, anti, flat, v) {
			flipBit(dst, int(v.col))
			n++
		}
	}
	return n + c.applyRandomFaults(flat, row, elapsed, stored, dst, m)
}

// readCellScalar is readRowScalar narrowed to the cell at col: the same
// walk over every victim and fault cell of the row, toggling only for
// entries at col. It returns the parity of the toggles, and is the
// oracle readCellPlanes is held to under the parborscalar build tag.
func (c *Chip) readCellScalar(row, flat, col int, elapsed float64, stored []uint64, m *rowMeta) uint64 {
	anti := c.antiRow(row)
	var t uint64
	for i := range m.victims {
		v := &m.victims[i]
		if int(v.col) == col && elapsed >= float64(v.retentionMs) && c.victimFails(stored, anti, flat, v) {
			t ^= 1
		}
	}
	for _, fcell := range m.fcells {
		if int(fcell.Col) == col && c.faultCellFails(fcell, flat, elapsed, stored, anti) {
			t ^= 1
		}
	}
	if c.softErrorCol(flat) == col {
		t ^= 1
	}
	return t
}

// charged reports whether the cell at col holds charge, accounting
// for the row's polarity.
func charged(words []uint64, col int, anti bool) bool {
	bit := getBit(words, col) != 0
	return bit != anti
}

// victimFails evaluates the coupling failure condition for one victim
// against the stored row content.
//
//parbor:hotpath
func (c *Chip) victimFails(stored []uint64, anti bool, flat int, v *vcell) bool {
	if !charged(stored, int(v.col), anti) {
		// Only charged cells leak toward the opposite value within
		// the retention window; the inverse test pattern covers the
		// cells of opposite polarity.
		return false
	}
	if v.remapped {
		// The redundant cell's physical neighbors are spare columns
		// outside the system address space: the failure fires
		// sporadically, independent of written data.
		return c.cellDraw(c.remapSrc, flat, int(v.col), c.fc.RemappedFailProb)
	}
	leftOpposite := v.left >= 0 && !charged(stored, int(v.left), anti)
	rightOpposite := v.right >= 0 && !charged(stored, int(v.right), anti)
	var classFails bool
	switch v.class {
	case coupling.StrongLeft:
		classFails = leftOpposite
	case coupling.StrongRight:
		classFails = rightOpposite
	case coupling.Weak:
		classFails = leftOpposite && rightOpposite
	}
	if !classFails {
		return false
	}
	// Aggregate-interference tail: every surround cell must also be
	// opposite.
	for _, sc := range v.surround {
		if charged(stored, int(sc), anti) {
			return false
		}
	}
	return true
}

// applyRandomFaults injects the non-data-dependent failure modes into
// dst for this read. Every stochastic draw below is keyed per
// (pass, flat row, column) by chained At derivations (see the keying
// invariant on Chip), so two reads of the same row in one pass see
// the same faults, and no draw depends on what else was read first.
//
//parbor:hotpath
func (c *Chip) applyRandomFaults(flat, row int, elapsed float64, stored, dst []uint64, m *rowMeta) int {
	anti := c.antiRow(row)
	n := 0
	for _, fcell := range m.fcells {
		if c.faultCellFails(fcell, flat, elapsed, stored, anti) {
			flipBit(dst, int(fcell.Col))
			n++
		}
	}
	if col := c.softErrorCol(flat); col >= 0 {
		flipBit(dst, col)
		n++
	}
	return n
}

// faultCellFails evaluates one random-fault cell for this read: it
// must hold charge and be past its kind's retention threshold, and VRT
// and marginal cells then fail on their keyed per-pass draw.
//
//parbor:hotpath
func (c *Chip) faultCellFails(fcell faults.Cell, flat int, elapsed float64, stored []uint64, anti bool) bool {
	col := int(fcell.Col)
	switch fcell.Kind {
	case faults.KindVRT:
		// The leaky state is a fresh per-pass Bernoulli draw per VRT
		// cell, exactly as when it was drawn eagerly in Wait — but
		// keyed, so unmaterialized rows need no state.
		return elapsed >= vrtRetentionMs && charged(stored, col, anti) && c.cellDraw(c.vrtSrc, flat, col, c.fc.VRTToggleProb)
	case faults.KindMarginal:
		return elapsed >= marginalRetentionMs && charged(stored, col, anti) && c.cellDraw(c.marginalSrc, flat, col, c.fc.MarginalFailProb)
	case faults.KindWeak:
		return elapsed >= weakRetentionMs && charged(stored, col, anti)
	}
	return false
}

// cellDraw is the Bernoulli draw with probability p that stream s
// keys on (this pass, flat row, column).
//
//parbor:hotpath
func (c *Chip) cellDraw(s rng.Source, flat, col int, p float64) bool {
	src := s.At(c.pass).At(uint64(flat)).At(uint64(col))
	return src.Bool(p)
}

// softErrorCol returns the column this read's soft error strikes, or
// -1 when the row's keyed per-pass draw spares it.
//
//parbor:hotpath
func (c *Chip) softErrorCol(flat int) int {
	if c.fc.SoftErrorPerRowRead > 0 {
		src := c.softSrc.At(c.pass).At(uint64(flat))
		if src.Bool(c.fc.SoftErrorPerRowRead) {
			return src.Intn(c.geom.Cols)
		}
	}
	return -1
}

// chargeTime returns the sim time (ms) the row's cells were last
// restored to full charge: its last explicit write, or the latest
// auto-refresh if that came later and did not skip the row.
//
//parbor:hotpath
func (c *Chip) chargeTime(idx int) float64 {
	t := c.writeAt[idx]
	if c.lastRefreshMs > t && c.pausedBits[idx>>6]&(1<<(uint(idx)&63)) == 0 {
		t = c.lastRefreshMs
	}
	return t
}

// AutoRefresh restores full charge on every row except the excluded
// flat row indices, without altering stored data: the auto-refresh
// that keeps running for all memory not paused for testing. Host
// passes invoke it so that only rows actually under test accumulate
// retention time.
//
// The implementation is lazy — O(rows excluded) rather than O(rows in
// chip): the refresh is recorded as a chip-level timestamp plus the
// paused bitset, and ReadRow reconstructs each row's effective charge
// time on demand (chargeTime). Before the new epoch is installed, the
// rows it pauses have their charge time from the previous epoch
// materialized into writeAt, so retention keeps accumulating across
// consecutive passes that test the same rows.
//
// except may hold duplicates and need not be sorted; the chip copies
// what it needs, so the caller is free to reuse the slice immediately.
func (c *Chip) AutoRefresh(except []int) {
	for _, idx := range except {
		if t := c.chargeTime(idx); t > c.writeAt[idx] {
			c.writeAt[idx] = t
		}
	}
	// Swap epochs: clear the previous epoch's bits through its list
	// (O(rows previously excluded)), then set the new ones.
	for _, idx := range c.pausedList {
		c.pausedBits[idx>>6] &^= 1 << (uint(idx) & 63)
	}
	c.pausedList = c.pausedList[:0]
	for _, idx := range except {
		w, bit := idx>>6, uint64(1)<<(uint(idx)&63)
		if c.pausedBits[w]&bit == 0 {
			c.pausedBits[w] |= bit
			c.pausedList = append(c.pausedList, idx)
		}
	}
	c.lastRefreshMs = c.nowMs
	if c.rec != nil {
		c.rec.Command(obs.CmdRefresh, 1)
	}
}

// SetRecorder attaches (or, with nil, detaches) a command recorder
// after construction. Commands still pending go to the old recorder
// first, so each recorder sees exactly the accesses made while it was
// attached. Recording is passive; swapping recorders never changes
// simulation results.
func (c *Chip) SetRecorder(r obs.Recorder) {
	c.FlushCommands()
	c.rec = r
}

// Clock returns the chip's simulation clock: the current virtual time
// in milliseconds and the pass counter that seeds the per-pass noise
// and VRT draws. Together with the experiment seed these determine
// every future stochastic draw, so a checkpoint that records them can
// resume bit-identically.
func (c *Chip) Clock() (nowMs float64, pass uint64) { return c.nowMs, c.pass }

// SetClock restores a clock captured by Clock on a freshly
// constructed chip (same geometry, same seed). It also resets the
// refresh bookkeeping — lastRefreshMs jumps to nowMs and any paused
// epoch is dropped — so the first read after a restore sees zero
// elapsed retention, exactly like the read that verified the
// checkpoint's save pass. Restoring the clock without restoring row
// contents is the caller's contract violation, not detected here.
func (c *Chip) SetClock(nowMs float64, pass uint64) {
	if nowMs < 0 {
		panic("dram: negative clock")
	}
	c.nowMs = nowMs
	c.pass = pass
	c.lastRefreshMs = nowMs
	for _, idx := range c.pausedList {
		c.pausedBits[idx>>6] &^= 1 << (uint(idx) & 63)
	}
	c.pausedList = c.pausedList[:0]
}

// FlatRowIndex converts a (bank, row) pair to the flat index used by
// AutoRefresh.
func (c *Chip) FlatRowIndex(bank, row int) int { return c.geom.rowIndex(bank, row) }

// Now returns the chip's simulated clock in milliseconds.
func (c *Chip) Now() float64 { return c.nowMs }

// TrueVictims exposes the ground-truth victim population of a row for
// experiment validation and tests. It reuses the row's cached
// rowMeta rather than re-deriving the population from the RNG, so
// validation paths do not pay the materialization cost a second time.
// The returned slice is a copy the caller may modify.
func (c *Chip) TrueVictims(bank, row int) []coupling.Victim {
	m := c.rowMetaFor(c.geom.rowIndex(bank, row))
	return append([]coupling.Victim(nil), m.raw...)
}

// RemappedColumns exposes the ground-truth remapped-column set for
// experiment validation and tests.
func (c *Chip) RemappedColumns() map[int32]struct{} {
	out := make(map[int32]struct{}, len(c.remap))
	for k := range c.remap {
		out[k] = struct{}{}
	}
	return out
}
