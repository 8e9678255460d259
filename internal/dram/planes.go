// Bit-parallel victim evaluation: per-row mask planes.
//
// ReadRow used to walk the row's victims and fault cells one struct at
// a time, probing individual bits of the stored words for the victim's
// charge and each scrambled neighbor's charge. Rows are stored as
// packed 64-cell words, so all of those probes are word-wide AND/XOR
// sweeps waiting to happen. This file precomputes, once per row at
// materialization time, the masks that turn the per-cell probes into
// word operations:
//
//   - per storage word, victim masks bucketed by coupling class and
//     by retention tier, so "which charged victims could fail at this
//     elapsed time" is a handful of ANDs;
//   - per (word, neighbor distance), the mask of victims whose
//     physical neighbor on that side sits at that signed system-address
//     delta, so "is the neighbor opposite" is one shifted load per
//     distance instead of one bit probe per victim;
//   - a remapped-victim mask and per-kind fault-cell masks, so the
//     sporadic failure modes take the same fast skip.
//
// The construction walks the resolved victim neighborhoods (already in
// physical order through scramble.Mapping), so the masks encode the
// physical-order permutation once; the read path never consults the
// mapping again.
//
// Charge-plane algebra: a cell is charged when its stored bit differs
// from the row's anti polarity, so the charge plane of word w is
// stored[w] XOR antiX (antiX = all-ones on anti rows). Every plane
// predicate is conservative-exact: a bit survives the mask sweep only
// if its charged/class/neighbor conditions hold exactly; retention
// thresholds are continuous per victim, so the sweep gates on per-tier
// row minima and the per-bit fallback re-checks the exact threshold.
// Stochastic draws are keyed per (pass, flat row, column) and are
// position-independent, so drawing only for mask-surviving bits is
// stream-identical to the scalar path (see the keying invariant on
// Chip); the flip set, and therefore every failure set and golden
// checksum, is bit-identical (TestReadRowPlanesMatchScalarOracle).
package dram

import (
	"math"
	"math/bits"

	"parbor/internal/coupling"
	"parbor/internal/faults"
)

// tierSplitMs partitions victim retention thresholds into two tiers:
// fast victims (threshold below the split) and slow ones. Short waits
// — the nominal 64 ms refresh interval the online scheduler tests at —
// fall below every threshold and skip the sweep entirely via the
// per-row minima; intermediate waits (the DC-REF profiling region)
// activate only the fast tier's masks. The split is coarse on purpose:
// tier masks over-approximate and the per-bit fallback applies the
// exact per-victim threshold.
const tierSplitMs = 512

// distMask is the mask of victim bits within one storage word whose
// physical neighbor on one side sits at signed system-address delta d.
type distMask struct {
	mask uint64
	d    int32
}

// planeEntry is the precomputed victim state of one storage word
// within one retention tier. Only words containing at least one
// non-remapped victim of the tier get an entry.
//
// The layout is deliberately flat and small (24 bytes, no pointers):
// the read path streams a row's entries sequentially over a working
// set far larger than L2, so bytes per entry are the dominant cost.
// Instead of class masks, an entry stores the two side-need masks the
// failure condition actually consumes — nl (victims that consult the
// left neighbor: StrongLeft and Weak) and nr (StrongRight and Weak) —
// from which fail = cand & (lOpp|^nl) & (rOpp|^nr) recovers all three
// class conditions. The common case (every nl victim shares one left
// neighbor delta, every nr victim one right delta) inlines the deltas
// as dl/dr; words mixing deltas, or containing a victim whose
// physical neighbor on a needed side is missing, spill to an
// out-of-line extPairs record via xi.
type planeEntry struct {
	word int32
	// dl and dr are the inline neighbor deltas: every victim in nl has
	// its left neighbor at system delta dl (resp. nr/dr on the right).
	// 0 means the side has no pair at all — no victim on this side has
	// a physical neighbor, so its neighbor-opposite lane stays 0,
	// exactly the scalar "no neighbor, not opposite" semantics. Only
	// meaningful when xi == 0.
	dl, dr int8
	// xi, when nonzero, is 1+index into rowPlanes.ext for words whose
	// pair structure does not fit the inline form.
	xi uint16
	// nl and nr are the victim masks that consult the left and right
	// neighbor; a Weak victim appears in both.
	nl, nr uint64
}

// extPairs addresses the packed per-distance pair lists of one
// overflow entry inside rowPlanes.pairs.
type extPairs struct {
	lp, rp uint32
	ln, rn uint8
}

// wordMask is a sparse (word, mask) pair.
type wordMask struct {
	word int32
	mask uint64
}

// faultMask is the per-kind fault-cell state of one storage word. The
// kinds stay separate: a column can carry two kinds (RowCells samples
// each kind independently), and the scalar path then flips it once per
// firing kind.
type faultMask struct {
	word     int32
	vrt      uint64
	marginal uint64
	weak     uint64
}

// rowPlanes is the bit-parallel evaluation state of one row, built by
// buildRowPlanes at materialization time and immutable afterwards.
type rowPlanes struct {
	// fast and slow hold the entries of retention tier 0 (threshold
	// below tierSplitMs) and tier 1; a word with victims in both tiers
	// has an entry in each. Splitting by tier means an intermediate
	// elapsed time sweeps only the entries that can matter, with no
	// per-entry tier filtering at all.
	fast []planeEntry
	slow []planeEntry
	// ext and pairs back the overflow entries: ext records address the
	// per-distance pair lists packed into pairs.
	ext    []extPairs
	pairs  []distMask
	remap  []wordMask
	fcells []faultMask

	// Elapsed-time gates, all +Inf when their population is empty:
	// tierMin is the minimum retention threshold per tier (also the
	// sweep gate for that tier's entries), remapMin the minimum over
	// remapped victims, fcellMin the shortest fault-kind threshold
	// present (vrt 64 ms < marginal 200 ms < weak 300 ms).
	tierMin  [2]float64
	remapMin float64
	fcellMin float64
}

// planeArena block-allocates the per-row plane slices. Rows
// materialize in the order sweeps read them (ascending), so packing
// each row's entries, pairs, and fault masks into shared blocks lays
// consecutive rows out contiguously: the read path streams them with
// the hardware prefetcher instead of taking a cache miss on every
// row's privately allocated slices. Blocks are append-only — a row's
// view is capped with a three-index slice and never reallocated, so
// interned slices stay valid when later rows fill the block.
//
// Blocks grow geometrically, from minArenaBlock to maxArenaBlock
// elements, so a chip with few rows (a fleet chip of 32 rows holds a
// few hundred elements) reserves about twice what its rows use, not a
// full-size block of each type.
type planeArena struct {
	entries arenaBlocks[planeEntry]
	ext     arenaBlocks[extPairs]
	pairs   arenaBlocks[distMask]
	fcells  arenaBlocks[faultMask]
}

// arenaBlocks is one element type's chain of arena blocks. Only the
// newest block is held here; older ones live on through the views
// interned into them.
type arenaBlocks[T any] struct {
	cur []T
	// reserved counts the elements of every block opened so far, the
	// arena's footprint for this type.
	reserved int
}

// Arena block sizes, in elements: the first block of each type holds
// minArenaBlock, and each later one twice its predecessor, up to
// maxArenaBlock (or the row's own item count, if larger).
const (
	minArenaBlock = 64
	maxArenaBlock = 4096
)

// intern moves items into the newest block, first opening a fresh,
// larger block when the current one cannot hold them.
func (a *arenaBlocks[T]) intern(items []T) []T {
	if len(items) == 0 {
		return nil
	}
	if cap(a.cur)-len(a.cur) < len(items) {
		n := max(min(max(2*cap(a.cur), minArenaBlock), maxArenaBlock), len(items))
		a.cur = make([]T, 0, n)
		a.reserved += n
	}
	base := len(a.cur)
	a.cur = append(a.cur, items...)
	return a.cur[base : base+len(items) : base+len(items)]
}

// entryBuilder accumulates one tier's entries during buildRowPlanes.
// Victims arrive in ascending column order, so all victims of one
// storage word are consecutive: the entry under construction is
// always the last one, and its pair lists accumulate in the left and
// right scratch slices until the word advances.
type entryBuilder struct {
	entries     []planeEntry
	left, right []distMask
}

// add folds one victim into the builder, opening a new entry when the
// word advances.
func (b *entryBuilder) add(p *rowPlanes, w int32, bit uint64, v *vcell) {
	if n := len(b.entries); n == 0 || b.entries[n-1].word != w {
		b.flush(p)
		b.entries = append(b.entries, planeEntry{word: w})
	}
	e := &b.entries[len(b.entries)-1]
	if v.class != coupling.StrongRight {
		e.nl |= bit // StrongLeft and Weak consult the left neighbor
		if v.left >= 0 {
			b.left = addDistMask(b.left, v.left-v.col, bit)
		}
	}
	if v.class != coupling.StrongLeft {
		e.nr |= bit // StrongRight and Weak consult the right neighbor
		if v.right >= 0 {
			b.right = addDistMask(b.right, v.right-v.col, bit)
		}
	}
}

// flush seals the entry under construction: inline deltas when each
// side collapses to a single pair covering every victim that consults
// it, an out-of-line extPairs record otherwise.
func (b *entryBuilder) flush(p *rowPlanes) {
	if n := len(b.entries); n > 0 {
		e := &b.entries[n-1]
		dl, lok := soloDelta(b.left, e.nl)
		dr, rok := soloDelta(b.right, e.nr)
		if lok && rok {
			e.dl, e.dr = dl, dr
		} else {
			if len(p.ext) == int(^uint16(0)) {
				// Unreachable for any valid geometry: it would take
				// more than 64k victim-holding words in a single row.
				// Guarded so the uint16 encoding can never wrap.
				panic("dram: row plane overflow table full")
			}
			p.ext = append(p.ext, extPairs{lp: uint32(len(p.pairs)), ln: uint8(len(b.left))})
			p.pairs = append(p.pairs, b.left...)
			x := &p.ext[len(p.ext)-1]
			x.rp, x.rn = uint32(len(p.pairs)), uint8(len(b.right))
			p.pairs = append(p.pairs, b.right...)
			e.xi = uint16(len(p.ext))
		}
	}
	b.left, b.right = b.left[:0], b.right[:0]
}

// soloDelta reports whether a side's pair list fits the inline entry
// form: no pairs at all (delta 0: the side contributes no
// neighbor-opposite bits), or exactly one delta that covers every
// victim consulting the side (mask equality matters: a victim that
// needs the side but has no physical neighbor there must not inherit
// the lane of the victims that do).
func soloDelta(pairs []distMask, need uint64) (int8, bool) {
	if len(pairs) == 0 {
		return 0, true
	}
	if len(pairs) == 1 && pairs[0].mask == need && pairs[0].d >= -127 && pairs[0].d <= 127 {
		return int8(pairs[0].d), true
	}
	return 0, false
}

// buildRowPlanes derives the mask planes from a row's resolved victim
// and fault-cell populations. Victims arrive sorted by ascending
// column (coupling.RowVictims draws them with ascending gap sampling),
// so each tier's entries are appended in ascending word order.
//
//parbor:planebuild
func (c *Chip) buildRowPlanes(m *rowMeta) rowPlanes {
	inf := math.Inf(1) // empty populations gate their sweep off forever
	p := rowPlanes{
		tierMin:  [2]float64{inf, inf},
		remapMin: inf,
		fcellMin: inf,
	}
	var fast, slow entryBuilder
	for i := range m.victims {
		v := &m.victims[i]
		w := v.col >> 6
		bit := uint64(1) << (uint(v.col) & 63)
		ret := float64(v.retentionMs)
		if v.remapped {
			if n := len(p.remap); n > 0 && p.remap[n-1].word == w {
				p.remap[n-1].mask |= bit
			} else {
				p.remap = append(p.remap, wordMask{word: w, mask: bit})
			}
			if ret < p.remapMin {
				p.remapMin = ret
			}
			continue
		}
		b, tier := &fast, 0
		if ret >= tierSplitMs {
			b, tier = &slow, 1
		}
		if ret < p.tierMin[tier] {
			p.tierMin[tier] = ret
		}
		b.add(&p, w, bit, v)
	}
	fast.flush(&p)
	slow.flush(&p)
	p.fast = c.arena.entries.intern(fast.entries)
	p.slow = c.arena.entries.intern(slow.entries)
	// Fault cells are per-kind ascending but not globally sorted, so
	// find-or-insert keeps the (tiny) list in ascending word order.
	for _, fcell := range m.fcells {
		w := fcell.Col >> 6
		bit := uint64(1) << (uint(fcell.Col) & 63)
		e := fcellEntryFor(&p, w)
		switch fcell.Kind {
		case faults.KindVRT:
			e.vrt |= bit
			if p.fcellMin > vrtRetentionMs {
				p.fcellMin = vrtRetentionMs
			}
		case faults.KindMarginal:
			e.marginal |= bit
			if p.fcellMin > marginalRetentionMs {
				p.fcellMin = marginalRetentionMs
			}
		case faults.KindWeak:
			e.weak |= bit
			if p.fcellMin > weakRetentionMs {
				p.fcellMin = weakRetentionMs
			}
		}
	}
	p.ext = c.arena.ext.intern(p.ext)
	p.pairs = c.arena.pairs.intern(p.pairs)
	p.fcells = c.arena.fcells.intern(p.fcells)
	return p
}

// addDistMask merges bit into the pair for delta d, appending a new
// pair when the word has no victim with that neighbor delta yet. The
// list stays tiny: a chunk-local mapping has at most a handful of
// distinct deltas (vendor profiles: 6).
func addDistMask(pairs []distMask, d int32, bit uint64) []distMask {
	for i := range pairs {
		if pairs[i].d == d {
			pairs[i].mask |= bit
			return pairs
		}
	}
	return append(pairs, distMask{mask: bit, d: d})
}

// fcellEntryFor finds or inserts the faultMask for word w, keeping
// ascending word order.
func fcellEntryFor(p *rowPlanes, w int32) *faultMask {
	lo := 0
	for lo < len(p.fcells) && p.fcells[lo].word < w {
		lo++
	}
	if lo < len(p.fcells) && p.fcells[lo].word == w {
		return &p.fcells[lo]
	}
	p.fcells = append(p.fcells, faultMask{})
	copy(p.fcells[lo+1:], p.fcells[lo:])
	p.fcells[lo] = faultMask{word: w}
	return &p.fcells[lo]
}

// neighborLane returns the 64-bit charge lane at signed system-address
// delta d from storage word w: bit i of the result is the charge of
// cell w*64+i+d. Deltas are not 64-aligned, so the lane is composed
// from the two straddled words with a funnel shift; words outside the
// row read as zero, which is safe because the pair masks the lane is
// ANDed under never cover a victim whose neighbor falls outside the
// row (neighbors are chunk-local by construction).
//
//parbor:hotpath
func neighborLane(stored []uint64, antiX uint64, w int32, d int32) uint64 {
	idx := int(w)<<6 + int(d)
	q := idx >> 6 // arithmetic shift: floor division for negative idx
	r := uint(idx & 63)
	var lo, hi uint64
	if uint(q) < uint(len(stored)) {
		lo = stored[q] ^ antiX
	}
	if uint(q+1) < uint(len(stored)) {
		hi = stored[q+1] ^ antiX
	}
	// r == 0 needs no special case: Go defines hi<<64 as 0.
	return lo>>r | hi<<(64-r)
}

// nzMask8 returns all-ones when d is nonzero and zero otherwise,
// without a branch: for the unsigned widening v, v | -v has its top
// bit set exactly when v != 0.
func nzMask8(d int8) uint64 {
	v := uint64(uint8(d))
	return -((v | -v) >> 63)
}

// sweepPlanes evaluates one tier's entries against the stored row,
// toggling failing victims into dst and returning the toggle count.
//
//parbor:hotpath
func (c *Chip) sweepPlanes(p *rowPlanes, entries []planeEntry, elapsed float64, antiX uint64, stored, dst []uint64, m *rowMeta) int {
	n := 0
	// Process entries in blocks: a load-only gather pass first, then
	// the evaluation pass against the gathered words. The gather loop
	// has no branches or dependent work, so its (scattered, cache-cold)
	// stored-word loads issue back to back and miss in parallel; the
	// straight per-entry loop serialized them behind each entry's
	// branchy evaluation, and those first touches dominated the sweep.
	var cws [8]uint64
	for base := 0; base < len(entries); base += len(cws) {
		blk := entries[base:]
		if len(blk) > len(cws) {
			blk = blk[:len(cws)]
		}
		for i := range blk {
			cws[i] = stored[blk[i].word]
		}
		for i := range blk {
			e := &blk[i]
			cw := cws[i] ^ antiX
			cand := (e.nl | e.nr) & cw
			if cand == 0 {
				continue // no eligible victim holds charge: zero flips here
			}
			var lOpp, rOpp uint64
			if e.xi == 0 {
				// Branch-free: compute both lanes unconditionally and
				// zero the side via nzMask8 when it has no pair (delta
				// 0). The lane loads hit the row's already-touched words,
				// so unconditional evaluation is cheaper than the
				// data-dependent branches it replaces — in victim-dense
				// rows those predicted poorly and dominated the sweep.
				lOpp = e.nl &^ neighborLane(stored, antiX, e.word, int32(e.dl)) & nzMask8(e.dl)
				rOpp = e.nr &^ neighborLane(stored, antiX, e.word, int32(e.dr)) & nzMask8(e.dr)
			} else {
				// Overflow path: accumulate each side's lanes over the
				// packed per-distance pairs. The loop bodies are
				// branch-free on purpose — a "does this pair matter"
				// mask test per pair mispredicts on dense rows and
				// costs more than the two loads and shift it skips.
				x := &p.ext[e.xi-1]
				for _, pr := range p.pairs[x.lp : x.lp+uint32(x.ln)] {
					lOpp |= pr.mask &^ neighborLane(stored, antiX, e.word, pr.d)
				}
				for _, pr := range p.pairs[x.rp : x.rp+uint32(x.rn)] {
					rOpp |= pr.mask &^ neighborLane(stored, antiX, e.word, pr.d)
				}
			}
			// A StrongLeft bit sits only in nl, so (rOpp|^nr) passes it
			// and (lOpp|^nl) demands its left lane — and symmetrically;
			// a Weak bit sits in both and demands both. One expression,
			// all three class conditions.
			fail := cand & (lOpp | ^e.nl) & (rOpp | ^e.nr)
			for fail != 0 {
				col := int(e.word)<<6 + bits.TrailingZeros64(fail)
				fail &= fail - 1
				v := m.victimAt(int32(col))
				if elapsed < float64(v.retentionMs) {
					continue // tier gate over-approximated; exact threshold rules
				}
				if surroundOpposite(stored, antiX, v) {
					flipBit(dst, col)
					n++
				}
			}
		}
	}
	return n
}

// readRowPlanes is the bit-parallel ReadRow body: the mask-plane
// equivalent of readRowScalar, flipping the exact same bit set (the
// differential suite in planes_test.go holds the two to bit-identity)
// and returning the same toggle count. The sweeps only narrow
// candidates; every surviving bit then takes the same exact per-cell
// predicate — and the same keyed draw — as the scalar path.
//
//parbor:hotpath
func (c *Chip) readRowPlanes(row, flat int, elapsed float64, stored, dst []uint64, m *rowMeta) int {
	p := &c.planes[flat]
	var antiX uint64
	if c.antiRow(row) {
		antiX = ^uint64(0)
	}
	n := 0
	if elapsed >= p.tierMin[0] {
		n += c.sweepPlanes(p, p.fast, elapsed, antiX, stored, dst, m)
	}
	if elapsed >= p.tierMin[1] {
		n += c.sweepPlanes(p, p.slow, elapsed, antiX, stored, dst, m)
	}
	if elapsed >= p.remapMin {
		for _, e := range p.remap {
			// Remapped victims fail sporadically, independent of written
			// data — but only when charged and past their threshold.
			for cand := e.mask & (stored[e.word] ^ antiX); cand != 0; cand &= cand - 1 {
				col := int(e.word)<<6 + bits.TrailingZeros64(cand)
				v := m.victimAt(int32(col))
				if elapsed < float64(v.retentionMs) {
					continue
				}
				src := c.remapSrc.At(c.pass).At(uint64(flat)).At(uint64(col))
				if src.Bool(c.fc.RemappedFailProb) {
					flipBit(dst, col)
					n++
				}
			}
		}
	}
	if elapsed >= p.fcellMin {
		vrtPass := c.vrtSrc.At(c.pass).At(uint64(flat))
		marginalPass := c.marginalSrc.At(c.pass).At(uint64(flat))
		for fi := range p.fcells {
			e := &p.fcells[fi]
			cw := stored[e.word] ^ antiX
			if elapsed >= vrtRetentionMs {
				for cand := e.vrt & cw; cand != 0; cand &= cand - 1 {
					col := int(e.word)<<6 + bits.TrailingZeros64(cand)
					src := vrtPass.At(uint64(col))
					if src.Bool(c.fc.VRTToggleProb) {
						flipBit(dst, col)
						n++
					}
				}
			}
			if elapsed >= marginalRetentionMs {
				for cand := e.marginal & cw; cand != 0; cand &= cand - 1 {
					col := int(e.word)<<6 + bits.TrailingZeros64(cand)
					src := marginalPass.At(uint64(col))
					if src.Bool(c.fc.MarginalFailProb) {
						flipBit(dst, col)
						n++
					}
				}
			}
			if elapsed >= weakRetentionMs {
				// Weak cells fail deterministically: the whole word flips
				// in one XOR.
				dst[e.word] ^= e.weak & cw
				n += bits.OnesCount64(e.weak & cw)
			}
		}
	}
	if col := c.softErrorCol(flat); col >= 0 {
		flipBit(dst, col)
		n++
	}
	return n
}

// readCellPlanes is readRowPlanes narrowed to the cell at col: the
// row's gates and word masks decide which failure modes can toggle
// the cell, and each that can takes the same exact predicate and the
// same keyed draw as the row read. It returns the parity of the
// toggles (a cell can carry a victim and fault kinds at once, and two
// firing modes cancel, as their flips do in readRowPlanes).
//
//parbor:hotpath
func (c *Chip) readCellPlanes(row, flat, col int, elapsed float64, stored []uint64, m *rowMeta) uint64 {
	p := &c.planes[flat]
	anti := c.antiRow(row)
	w, bit := int32(col>>6), uint64(1)<<(uint(col)&63)
	var t uint64
	// Every mode but the soft error needs the cell charged.
	if charged(stored, col, anti) {
		if elapsed >= min(p.tierMin[0], p.tierMin[1], p.remapMin) {
			if v := m.findVictim(int32(col)); v != nil && elapsed >= float64(v.retentionMs) && c.victimFails(stored, anti, flat, v) {
				t = 1
			}
		}
		if e := p.fcellsAt(w); e != nil && elapsed >= p.fcellMin {
			if elapsed >= vrtRetentionMs && e.vrt&bit != 0 && c.cellDraw(c.vrtSrc, flat, col, c.fc.VRTToggleProb) {
				t ^= 1
			}
			if elapsed >= marginalRetentionMs && e.marginal&bit != 0 && c.cellDraw(c.marginalSrc, flat, col, c.fc.MarginalFailProb) {
				t ^= 1
			}
			if elapsed >= weakRetentionMs && e.weak&bit != 0 {
				t ^= 1
			}
		}
	}
	if c.softErrorCol(flat) == col {
		t ^= 1
	}
	return t
}

// fcellsAt returns the fault masks of storage word w, or nil when the
// word holds no fault cell. The list is tiny and in ascending word
// order.
//
//parbor:hotpath
func (p *rowPlanes) fcellsAt(w int32) *faultMask {
	for i := range p.fcells {
		if e := &p.fcells[i]; e.word >= w {
			if e.word == w {
				return e
			}
			break
		}
	}
	return nil
}

// surroundOpposite reports whether every surround cell of v holds the
// opposite charge — the aggregate-interference tail of the coupling
// condition, evaluated exactly per surviving bit.
//
//parbor:hotpath
func surroundOpposite(stored []uint64, antiX uint64, v *vcell) bool {
	for _, sc := range v.surround {
		if (stored[sc>>6]^antiX)>>(uint(sc)&63)&1 != 0 {
			return false
		}
	}
	return true
}

// victimAt returns the victim with the given column. Victims are
// sorted by ascending column and unique, and callers only ask for
// columns that came out of this row's own masks, so the binary search
// always lands.
//
//parbor:hotpath
func (m *rowMeta) victimAt(col int32) *vcell { return &m.victims[m.victimIndex(col)] }

// findVictim returns the victim with the given column, or nil when the
// column holds none.
//
//parbor:hotpath
func (m *rowMeta) findVictim(col int32) *vcell {
	if i := m.victimIndex(col); i < len(m.victims) && m.victims[i].col == col {
		return &m.victims[i]
	}
	return nil
}

// victimIndex returns the index of the first victim at or above col.
//
//parbor:hotpath
func (m *rowMeta) victimIndex(col int32) int {
	lo, hi := 0, len(m.victims)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.victims[mid].col < col {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
