// Package memctl implements the system-level test host: the software
// that drives write-wait-read test passes against a DRAM module
// through the memory controller, counts tests, and estimates their
// wall-clock cost with the DDR3 timing model of the paper's Appendix.
//
// The host deliberately exposes only what a real memory controller
// exposes — row writes, a retention wait, and read-back mismatch
// detection. The detection algorithm (package core) runs entirely on
// top of this interface and therefore cannot cheat by inspecting the
// simulated chip's internals.
package memctl

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"time"

	"parbor/internal/dram"
	"parbor/internal/obs"
	"parbor/internal/par"
)

// Timing-series and counter names the host records into an attached
// obs.Recorder. Exported so report readers and tests can reference
// them without string literals.
const (
	// SeriesPass is the wall time of one whole write-wait-read pass.
	SeriesPass = "host.pass"
	// SeriesWriteSweep and SeriesReadSweep are the wall times of the
	// write and read halves of a pass.
	SeriesWriteSweep = "host.write_sweep"
	SeriesReadSweep  = "host.read_sweep"
	// SeriesChipShard is the per-chip task duration inside the
	// worker pool; its spread exposes shard load imbalance.
	SeriesChipShard = "host.chip_shard"
	// CounterPasses counts test passes, CounterRowsTested the rows
	// written and read back across all passes (full-module sweeps
	// count every row of every chip).
	CounterPasses     = "host.passes"
	CounterRowsTested = "host.rows_tested"
	// CounterPassFaults counts passes that failed on a fault-plane
	// rejection (see FaultPlane); zero on the fault-free path.
	CounterPassFaults = "host.pass_faults"
)

// ctxCheckStride is how many rows a per-chip shard processes between
// cooperative cancellation checks. Checking every row would take the
// context's mutex on the hot path; every 32 rows keeps cancellation
// latency at a handful of microseconds while costing nothing
// measurable.
const ctxCheckStride = 32

// Row identifies one row of one chip in the module.
type Row struct {
	Chip int
	Bank int
	Row  int
}

// BitAddr identifies one cell in the module by system address.
type BitAddr struct {
	Chip int16
	Bank int16
	Row  int32
	Col  int32
}

// CompareAddrs orders cells canonically by (chip, bank, row, col): the
// order FullPass reports failures in, and the one every failure list
// that is compared, merged or serialized is kept in. It returns -1, 0
// or +1 in the manner of cmp.Compare.
func CompareAddrs(a, b BitAddr) int {
	if c := cmp.Compare(a.Chip, b.Chip); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Bank, b.Bank); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Row, b.Row); c != 0 {
		return c
	}
	return cmp.Compare(a.Col, b.Col)
}

// RowSource supplies the pattern data of one row of a full-module
// pass. buf is host scratch of Geometry().Words() words owned by the
// worker driving r's chip; a source either fills buf and returns it,
// or ignores buf and returns its own immutable row, which the host
// aliases — it is read during the write sweep, never mutated and never
// retained past the pass — so a source may hand the same backing array
// to every row (see patterns.Arena). The read sweep diffs each row
// against the chip's stored copy of that same data
// (dram.Chip.ReadRowDelta), so the source is called once per row per
// pass. A returned row must hold Words() words and stay unchanged for
// the duration of the pass. A RowSource may be called concurrently
// from per-chip workers (always with distinct rows and distinct buf
// slices), so it must not mutate shared state.
type RowSource func(r Row, buf []uint64) []uint64

// HostConfig tunes a test host.
type HostConfig struct {
	// WaitMs is the retention wait applied between the write and read
	// halves of every pass; zero selects DefaultWaitMs.
	WaitMs float64
	// Parallelism bounds the worker pool the host fans per-chip work
	// out to: 0 selects GOMAXPROCS, 1 forces the serial path. The
	// effective pool is additionally capped at the module's chip
	// count, since one chip is never driven by two workers (the
	// dram.Chip concurrency contract). Results are bit-identical at
	// every setting.
	Parallelism int
	// Recorder, when non-nil, receives pass counters and timing
	// histograms (see the Series*/Counter* names). It observes only;
	// results are bit-identical with or without it.
	Recorder obs.Recorder
	// Faults, when non-nil, is the controller-side fault plane
	// consulted before every row write and read (see FaultPlane;
	// package chaos provides the standard deterministic plane). The
	// fault-free path is bit-identical with or without a plane.
	Faults FaultPlane
}

// Host drives test passes against a module.
//
// Host is not safe for concurrent use: callers issue one pass at a
// time. Internally a pass shards its per-chip write/read sweeps
// across a bounded worker pool (see HostConfig.Parallelism); this is
// safe because distinct dram.Chips share no mutable state, and it is
// deterministic because chips are independent and per-chip results
// are merged in a fixed order, so the output is bit-identical to the
// serial path.
//
// The single-writer contract is also what makes the steady-state
// pass loop allocation-free: every per-pass index and buffer below
// is host-owned scratch, rebuilt in place at the start of each sweep
// instead of freshly allocated, and the per-chip entries are only
// ever touched by the one worker that owns the chip during a pass.
type Host struct {
	mod    *dram.Module
	waitMs float64
	par    int
	passes int
	rec    obs.Recorder
	plane  FaultPlane

	// attempts numbers every pass attempt (and, with a plane
	// attached, every single-row read), including ones that fail: it
	// is the entropy a FaultPlane keys its draws on, so a retried
	// pass sees fresh fault draws rather than deterministically
	// re-hitting the fault that failed it. Distinct from passes,
	// which counts only completed tests (the paper's metric).
	attempts int

	// lastMask is the geometry's LastWordMask, cached so the compare
	// hot loops never recompute it per row.
	lastMask uint64

	// Per-chip buffers: chip i is only ever touched by the one worker
	// that owns it during a pass, so indexing by chip makes the
	// buffers race-free without locking.
	chipScratch [][]uint64 // read-back buffer per chip
	chipPattern [][]uint64 // RowSource fill buffer per chip
	// chipDelta is the per-chip XOR-delta scratch for the read sweeps
	// of Pass and FullPass (dram.Chip.ReadRowDelta). Invariant:
	// all-zero between reads — appendDeltaFails re-zeroes every word it
	// consumes, and a zero toggle count from the chip means the buffer
	// was not touched.
	chipDelta [][]uint64
	// rowSeen is a per-chip bitset over flat row indices that
	// bucketRows uses to spot a row listed twice in one pass. All-zero
	// between passes: bucketRows clears every word it set.
	rowSeen [][]uint64

	// Reusable per-pass scratch (see the Host comment).
	byChip   [][]int      // row-list indices bucketed per chip, caller order
	active   []int        // chips owning >= 1 bucketed row this pass
	slots    []*ChipFault // per-chip fault slots; nil when no plane attached
	perIndex [][]BitAddr  // readAndDiff: failures per row-list index
	perChip  [][]BitAddr  // full pass: failures per chip
	// Probe's row list (the rows of its cells) and its per-entry
	// verdicts. probeHit entries are written by the worker owning the
	// entry's chip, one distinct element each, and cleared before every
	// read sweep.
	probeRows []Row
	probeHit  []bool

	// Per-chip paused-row lists (flat row indices) for
	// autoRefreshPaused, rebuilt by bucketRows and reused across
	// passes via [:0]. dram.Chip.AutoRefresh copies what it retains
	// (the packed paused bitset lives chip-side), so one generation of
	// host scratch suffices — the double-buffered map sets the earlier
	// map-based AutoRefresh contract required are gone, and with them
	// the per-row map inserts and hash probes on the pass hot path.
	pausedRows [][]int

	// sweep is the state of the sweep in flight, read by the
	// pre-bound shard methods below. Binding the shard bodies once at
	// construction (method values) and passing state through this
	// struct keeps the hot loop free of the per-pass closure
	// allocations that capturing variables would cost.
	sweep sweepState

	writeRowsFn func(chip int) error
	readRowsFn  func(chip int) error
	deltaRowsFn func(chip int) error
	probeRowsFn func(chip int) error
	writeFullFn func(chip int) error
	readFullFn  func(chip int) error
	activeFn    func(k int) error // dispatches sweep.fn over active[k]
	onShard     func(i int, d time.Duration)
}

// sweepState carries one sweep's inputs to the shard methods. It is
// reset when the pass returns so the host never retains caller
// slices or contexts across passes.
type sweepState struct {
	ctx     context.Context
	attempt int
	rows    []Row                // row-list sweeps
	cells   []BitAddr            // probe sweeps: the cell read in each row
	data    [][]uint64           // write: data to store; read: expected
	src     RowSource            // full-module sweeps
	fn      func(chip int) error // shard body dispatched by activeFn
}

// DefaultWaitMs is the retention wait used by the paper's detection
// experiments: a 4 s refresh interval (4 s at 45 degC corresponds to
// 328 ms at 85 degC), which ensures cells hold minimal charge when
// read and all coupling-vulnerable cells are past their thresholds.
const DefaultWaitMs = 4000

// NewHost wraps a module. waitMs is the retention wait applied
// between the write and read halves of every pass; zero selects
// DefaultWaitMs. Per-chip work is parallelized across GOMAXPROCS
// workers; use NewHostWithConfig to pick a different bound.
func NewHost(mod *dram.Module, waitMs float64) (*Host, error) {
	return NewHostWithConfig(mod, HostConfig{WaitMs: waitMs})
}

// NewHostWithConfig wraps a module with explicit host tuning.
func NewHostWithConfig(mod *dram.Module, cfg HostConfig) (*Host, error) {
	if mod == nil {
		return nil, fmt.Errorf("memctl: nil module")
	}
	if cfg.WaitMs == 0 {
		cfg.WaitMs = DefaultWaitMs
	}
	if cfg.WaitMs < 0 {
		return nil, fmt.Errorf("memctl: negative wait %v", cfg.WaitMs)
	}
	if cfg.Parallelism < 0 {
		return nil, fmt.Errorf("memctl: negative parallelism %d", cfg.Parallelism)
	}
	words := mod.Geometry().Words()
	chips := mod.Chips()
	h := &Host{
		mod:         mod,
		waitMs:      cfg.WaitMs,
		par:         cfg.Parallelism,
		rec:         cfg.Recorder,
		plane:       cfg.Faults,
		lastMask:    mod.Geometry().LastWordMask(),
		chipScratch: make([][]uint64, chips),
		chipPattern: make([][]uint64, chips),
		chipDelta:   make([][]uint64, chips),
		rowSeen:     make([][]uint64, chips),
		byChip:      make([][]int, chips),
		perChip:     make([][]BitAddr, chips),
	}
	for i := 0; i < chips; i++ {
		h.chipScratch[i] = make([]uint64, words)
		h.chipPattern[i] = make([]uint64, words)
		h.chipDelta[i] = make([]uint64, words)
		h.rowSeen[i] = make([]uint64, (mod.Geometry().RowCount()+63)/64)
	}
	if cfg.Faults != nil {
		h.slots = make([]*ChipFault, chips)
	}
	h.pausedRows = make([][]int, chips)
	h.writeRowsFn = h.writeRowsShard
	h.readRowsFn = h.readRowsShard
	h.deltaRowsFn = h.readRowsDeltaShard
	h.probeRowsFn = h.probeRowsShard
	h.writeFullFn = h.writeFullShard
	h.readFullFn = h.readFullShard
	h.activeFn = h.runActiveShard
	if rec := cfg.Recorder; rec != nil {
		h.onShard = func(_ int, d time.Duration) { rec.ObserveNs(SeriesChipShard, int64(d)) }
	}
	return h, nil
}

// Geometry returns the per-chip layout of the module under test.
func (h *Host) Geometry() dram.Geometry { return h.mod.Geometry() }

// Chips returns the number of chips in the module.
func (h *Host) Chips() int { return h.mod.Chips() }

// Passes returns the number of write-wait-read test passes performed
// so far. This is the paper's "number of tests".
func (h *Host) Passes() int { return h.passes }

// WaitMs returns the configured retention wait in milliseconds.
func (h *Host) WaitMs() float64 { return h.waitMs }

// Attempts returns the host's attempt counter: the entropy an
// attached FaultPlane keys its draws on. A checkpoint that records it
// (parbor/checkpoint/v1 HostAttempts) lets a resumed host replay the
// exact fault schedule an uninterrupted run would have seen.
func (h *Host) Attempts() int { return h.attempts }

// SetAttempts restores an attempt counter captured by Attempts on a
// freshly constructed host, before any pass is issued. Without it a
// resumed host restarts its fault-plane draws from attempt 0 and a
// chaos-injected run diverges from its uninterrupted twin.
func (h *Host) SetAttempts(n int) error {
	if n < 0 {
		return fmt.Errorf("memctl: negative attempt counter %d", n)
	}
	h.attempts = n
	return nil
}

// Recorder returns the recorder this host reports to (nil when none
// was configured), so layers built on the host — retry, quarantine,
// checkpointing — can count their own events next to the host's.
func (h *Host) Recorder() obs.Recorder { return h.rec }

// Parallelism returns the effective worker bound for per-chip
// sharding: the configured value (GOMAXPROCS when 0) capped at the
// chip count.
func (h *Host) Parallelism() int {
	w := h.par
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if chips := h.mod.Chips(); w > chips {
		w = chips
	}
	return w
}

// startClock returns the current time when a recorder is attached,
// and the zero time otherwise, so the disabled path never reads the
// clock.
//
//parbor:wallclock observational-only: feeds obs timing histograms, never simulation state, and is bit-inert (obs_inert_test.go)
func (h *Host) startClock() time.Time {
	if h.rec == nil {
		return time.Time{}
	}
	return time.Now()
}

// observeSince records the elapsed time since start into the named
// series; a zero start (recorder disabled) is a no-op.
//
//parbor:wallclock observational-only: pairs with startClock to histogram sweep times; results are bit-identical with or without it
func (h *Host) observeSince(name string, start time.Time) {
	if h.rec == nil || start.IsZero() {
		return
	}
	h.rec.ObserveNs(name, int64(time.Since(start)))
}

// add increments a named counter on the attached recorder, if any.
func (h *Host) add(name string, n uint64) {
	if h.rec != nil {
		h.rec.Add(name, n)
	}
}

// forEachChip runs fn(chip) for every chip, fanning out across the
// host's worker pool when it is larger than one. fn must confine
// itself to the given chip and its per-chip host buffers. After the
// first error no further chips are started; a panic in fn is
// converted to an error by the pool (serial path: it propagates).
func (h *Host) forEachChip(ctx context.Context, fn func(chip int) error) error {
	chips := h.mod.Chips()
	workers := h.Parallelism()
	if workers <= 1 || chips <= 1 {
		for chip := 0; chip < chips; chip++ {
			if err := fn(chip); err != nil {
				return err
			}
		}
		return nil
	}
	return par.Map(ctx, chips, workers, fn, h.onShard)
}

// bucketRows rebuilds the per-chip row-index buckets and the active
// chip list for a row-list pass, preserving the caller's relative
// order within each chip so the merged results are bit-identical to
// a serial sweep over the original list. It also rebuilds the
// per-chip paused-row lists (see autoRefreshPaused) and reports
// whether any row is listed more than once. The buckets live in host
// scratch: capacity is retained across passes.
func (h *Host) bucketRows(rows []Row) (dup bool) {
	for chip := range h.byChip {
		h.byChip[chip] = h.byChip[chip][:0]
		h.pausedRows[chip] = h.pausedRows[chip][:0]
	}
	for i, r := range rows {
		flat := h.mod.Chip(r.Chip).FlatRowIndex(r.Bank, r.Row)
		w, bit := flat>>6, uint64(1)<<(uint(flat)&63)
		seen := h.rowSeen[r.Chip]
		if seen[w]&bit != 0 {
			dup = true
		}
		seen[w] |= bit
		h.byChip[r.Chip] = append(h.byChip[r.Chip], i)
		h.pausedRows[r.Chip] = append(h.pausedRows[r.Chip], flat)
	}
	for chip, flats := range h.pausedRows {
		seen := h.rowSeen[chip]
		for _, flat := range flats {
			seen[flat>>6] = 0 // every set bit came from this list
		}
	}
	h.active = h.active[:0]
	for chip, idxs := range h.byChip {
		if len(idxs) > 0 {
			h.active = append(h.active, chip)
		}
	}
	return dup
}

// forEachActiveChip runs fn for every chip that owns at least one
// bucketed row. Small passes often touch a single chip; those skip
// the pool entirely rather than paying fan-out overhead for no
// concurrency.
func (h *Host) forEachActiveChip(ctx context.Context, fn func(chip int) error) error {
	workers := h.Parallelism()
	if workers <= 1 || len(h.active) <= 1 {
		for _, chip := range h.active {
			if err := fn(chip); err != nil {
				return err
			}
		}
		return nil
	}
	h.sweep.fn = fn
	defer func() { h.sweep.fn = nil }()
	return par.Map(ctx, len(h.active), workers, h.activeFn, h.onShard)
}

// runActiveShard is the pre-bound pool body for active-chip sweeps.
//
//parbor:hotpath
func (h *Host) runActiveShard(k int) error { return h.sweep.fn(h.active[k]) }

// clearFaultSlots resets the per-chip fault slots before a sweep.
// Slot c is only ever written by the worker that owns chip c, so the
// slice needs no locking. No-op when no plane is attached (slots is
// nil and chipFaultsError of a nil slice is nil).
func (h *Host) clearFaultSlots() {
	for i := range h.slots {
		h.slots[i] = nil
	}
}

// chipFaultsError assembles the non-nil fault slots into a
// deterministic *PassError (ascending chip order), or nil when no
// shard faulted.
func chipFaultsError(slots []*ChipFault) error {
	var out []*ChipFault
	for _, f := range slots {
		if f != nil {
			out = append(out, f)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return &PassError{Faults: out}
}

// failPass accounts a pass that did not complete. Fault-plane
// rejections are counted; cancellations are not (they are the
// caller's doing, not the hardware's).
func (h *Host) failPass(err error) error {
	var pe *PassError
	if errors.As(err, &pe) {
		h.add(CounterPassFaults, 1)
	}
	return err
}

// resetSweep drops the sweep-state references when a pass returns so
// the host never retains caller slices, sources, or contexts.
func (h *Host) resetSweep() { h.sweep = sweepState{} }

// Pass writes data[i] to rows[i], waits waitMs, reads the rows back
// and returns every mismatched bit address. It counts as one test
// regardless of how many rows it touches: on real hardware all rows
// are written back-to-back and share the single retention wait (this
// is what makes PARBOR's parallel-row testing cheap, Section 4.2).
// Callers testing at the configured interval pass WaitMs(); retention
// profiling (package retention) sweeps it instead. Malformed input —
// including a row outside the module — is an error returned before
// any host or chip state changes.
//
// Aliasing contract: the host only ever reads data — it is written
// to the chips, never mutated and never retained past the pass.
// Several rows may therefore share one backing slice (data[i] ==
// data[j]), which is how callers avoid refilling identical pattern
// rows every pass (see patterns.Arena and the region sharing in
// package core).
//
// The read sweep diffs each row against the data the chip stores for
// it (dram.Chip.ReadRowDelta), which is data[i] because the pass just
// wrote it. When the list names a row twice the chip stores only the
// later write, so such a pass falls back to reading every row back
// and comparing it against its own data[i], exactly as Verify does.
//
// Once ctx is done the sharded chip workers stop within
// ctxCheckStride rows and ctx.Err() is returned. A cancelled pass
// leaves the rows it already wrote holding test patterns — callers
// that must preserve live data restore afterwards with an uncancelled
// context (see package onlinetest).
//
// When an attached FaultPlane rejects an operation, the failing
// chip's shard aborts, the other chips finish, and the pass fails
// with a deterministic *PassError naming every faulted chip. A pass
// that fails during its write sweep aborts before the retention wait
// and does not count as a test; a pass that fails during the read
// sweep has already consumed the wait and is counted, exactly as on
// real hardware.
func (h *Host) Pass(ctx context.Context, rows []Row, data [][]uint64, waitMs float64) ([]BitAddr, error) {
	if err := h.checkRows(rows, data, waitMs, "data"); err != nil {
		return nil, err
	}
	passStart := h.startClock()
	dup, err := h.writeWait(ctx, rows, data, waitMs, passStart)
	if err != nil {
		return nil, err
	}
	readStart := h.startClock()
	fails, err := h.readAndDiff(ctx, h.sweep.attempt, rows, data, !dup)
	h.resetSweep()
	if err != nil {
		return nil, h.failPass(err)
	}
	h.passDone(passStart, readStart, len(rows))
	return fails, nil
}

// Probe is the pass a one-victim-per-row test needs: it writes data[i]
// to the row of cells[i], waits waitMs, reads the rows back and
// returns, in ascending order, the indices i whose cell reads back
// different from its bit in data[i] (nil when none fail). The chips
// evaluate only the failure modes that can toggle each probed cell
// (dram.Chip.ReadCell), not the whole row, and no failure address is
// built.
//
// Everything else is Pass: the same input validation, plus
// 0 <= Col < Cols for every cell; the same write sweep, shared wait,
// auto-refresh, fault-plane consultations, cancellation and errors;
// one test that counts len(cells) rows tested; and the same timing
// series and DRAM commands, one activate and one read per entry. A
// probe therefore reports exactly what the Pass it replaces reports
// for those cells, and the obs report is the same. When the list
// names a row twice the chip stores only the later write; each entry
// still reads its cell back and compares it against its own data, as
// Pass's compare fallback does, so duplicates need no other path.
// The data aliasing contract is Pass's.
func (h *Host) Probe(ctx context.Context, cells []BitAddr, data [][]uint64, waitMs float64) ([]int, error) {
	cols := h.mod.Geometry().Cols
	rows := h.probeRows[:0]
	for i, a := range cells {
		if a.Col < 0 || int(a.Col) >= cols {
			return nil, fmt.Errorf("memctl: cell %d: column %d outside the %d-column row", i, a.Col, cols)
		}
		rows = append(rows, Row{Chip: int(a.Chip), Bank: int(a.Bank), Row: int(a.Row)})
	}
	h.probeRows = rows
	if err := h.checkRows(rows, data, waitMs, "data"); err != nil {
		return nil, err
	}
	passStart := h.startClock()
	if _, err := h.writeWait(ctx, rows, data, waitMs, passStart); err != nil {
		return nil, err
	}
	readStart := h.startClock()
	if cap(h.probeHit) < len(cells) {
		h.probeHit = make([]bool, len(cells))
	}
	hit := h.probeHit[:len(cells)]
	clear(hit)
	h.clearFaultSlots()
	h.sweep.cells = cells
	err := h.forEachActiveChip(ctx, h.probeRowsFn)
	if err == nil {
		err = chipFaultsError(h.slots)
	}
	h.resetSweep()
	if err != nil {
		return nil, h.failPass(err)
	}
	var failed []int
	for i, f := range hit {
		if f {
			failed = append(failed, i)
		}
	}
	h.passDone(passStart, readStart, len(cells))
	return failed, nil
}

// writeWait is the first half of a row-list pass, shared by Pass and
// Probe: it takes the pass's attempt number, writes data[i] to rows[i]
// on the per-chip workers, waits waitMs, auto-refreshes every row not
// under test, and counts the test. It leaves the sweep state set up
// for the read half and reports whether a row is listed twice. A
// failed write sweep is accounted (failPass) and returned with the
// sweep state reset, before the wait.
func (h *Host) writeWait(ctx context.Context, rows []Row, data [][]uint64, waitMs float64, passStart time.Time) (dup bool, err error) {
	attempt := h.attempts
	h.attempts++
	dup = h.bucketRows(rows)
	h.clearFaultSlots()
	h.sweep.ctx = ctx
	h.sweep.attempt = attempt
	h.sweep.rows = rows
	h.sweep.data = data
	err = h.forEachActiveChip(ctx, h.writeRowsFn)
	if err == nil {
		err = chipFaultsError(h.slots)
	}
	if err != nil {
		h.resetSweep()
		return false, h.failPass(err)
	}
	h.observeSince(SeriesWriteSweep, passStart)
	h.mod.Wait(waitMs)
	h.autoRefreshPaused()
	h.passes++
	return dup, nil
}

// passDone records a completed test of n rows: its read-sweep and
// whole-pass timings and the pass and row counters.
func (h *Host) passDone(passStart, readStart time.Time, n int) {
	h.observeSince(SeriesReadSweep, readStart)
	h.observeSince(SeriesPass, passStart)
	h.add(CounterPasses, 1)
	h.add(CounterRowsTested, uint64(n))
}

// checkRows validates a row-list pass's inputs before any host or
// chip state changes: one buffer of Words() words per row, a
// non-negative wait, and every row inside the module. what names the
// buffers in errors ("data" or "expected").
func (h *Host) checkRows(rows []Row, bufs [][]uint64, waitMs float64, what string) error {
	if len(rows) != len(bufs) {
		return fmt.Errorf("memctl: %d rows but %d %s buffers", len(rows), len(bufs), what)
	}
	if waitMs < 0 {
		return fmt.Errorf("memctl: negative wait %v", waitMs)
	}
	words := h.mod.Geometry().Words()
	for i, r := range rows {
		if err := h.checkRow(r); err != nil {
			return err
		}
		if len(bufs[i]) != words {
			return fmt.Errorf("memctl: row %d: %s has %d words, want %d", i, what, len(bufs[i]), words)
		}
	}
	return nil
}

// checkRow rejects a row outside the module. Without it the flat row
// index of an out-of-range row would alias another bank's row or run
// off the chip's storage.
func (h *Host) checkRow(r Row) error {
	g := h.mod.Geometry()
	if r.Chip < 0 || r.Chip >= h.mod.Chips() || r.Bank < 0 || r.Bank >= g.Banks || r.Row < 0 || r.Row >= g.Rows {
		return fmt.Errorf("memctl: row (chip %d, bank %d, row %d) outside the %d-chip x %d-bank x %d-row module",
			r.Chip, r.Bank, r.Row, h.mod.Chips(), g.Banks, g.Rows)
	}
	return nil
}

// writeRowsShard writes one chip's bucketed rows (the write half of a
// row-list pass).
//
//parbor:hotpath
func (h *Host) writeRowsShard(chip int) error {
	c := h.mod.Chip(chip)
	defer c.FlushCommands()
	s := &h.sweep
	for k, i := range h.byChip[chip] {
		if k%ctxCheckStride == 0 {
			if cerr := s.ctx.Err(); cerr != nil {
				return cerr
			}
		}
		if h.plane != nil {
			if ferr := h.plane.BeforeWrite(s.attempt, s.rows[i]); ferr != nil {
				h.slots[chip] = &ChipFault{Chip: chip, Op: "write", Row: s.rows[i], Err: ferr}
				return nil // abort this shard; sibling chips continue
			}
		}
		c.WriteRow(s.rows[i].Bank, s.rows[i].Row, s.data[i])
	}
	return nil
}

// autoRefreshPaused models the auto-refresh that keeps running for
// every row not paused for the current test: those rows never
// accumulate retention time across passes. The rows under test —
// the per-chip lists bucketRows built in Host.pausedRows — are
// excluded, since their decay is the point of the wait. The lists are
// host scratch, safe to rebuild in place because AutoRefresh does not
// retain its argument.
func (h *Host) autoRefreshPaused() {
	for chip := 0; chip < h.mod.Chips(); chip++ {
		h.mod.Chip(chip).AutoRefresh(h.pausedRows[chip])
	}
}

// readAndDiff reads every listed row back and diffs it against
// want[i], sharding per chip. With delta set, want[i] must be what
// the chip stores for rows[i] (the row was just written from it and
// no other entry names the row), and each read hands over its failure
// delta directly instead of being compared. Results are merged in
// ascending row-list index, exactly the order a serial sweep produces;
// the merged slice is sized once from the per-index counts.
func (h *Host) readAndDiff(ctx context.Context, attempt int, rows []Row, want [][]uint64, delta bool) ([]BitAddr, error) {
	if cap(h.perIndex) < len(rows) {
		h.perIndex = make([][]BitAddr, len(rows))
	}
	h.perIndex = h.perIndex[:len(rows)]
	h.clearFaultSlots()
	h.sweep.ctx = ctx
	h.sweep.attempt = attempt
	h.sweep.rows = rows
	h.sweep.data = want
	shard := h.readRowsFn
	if delta {
		shard = h.deltaRowsFn
	}
	err := h.forEachActiveChip(ctx, shard)
	if err == nil {
		err = chipFaultsError(h.slots)
	}
	if err != nil {
		return nil, err
	}
	total := 0
	for _, f := range h.perIndex {
		total += len(f)
	}
	if total == 0 {
		return nil, nil
	}
	fails := make([]BitAddr, 0, total)
	for _, f := range h.perIndex {
		fails = append(fails, f...)
	}
	return fails, nil
}

// readRowsShard reads one chip's bucketed rows back and diffs them
// (the compare half of a row-list pass). Each row's mismatches land
// in perIndex[i]; the entries reuse their capacity from the previous
// pass, which is safe because readAndDiff copies them into the
// merged result before the next pass can touch them.
//
//parbor:hotpath
func (h *Host) readRowsShard(chip int) error {
	c := h.mod.Chip(chip)
	defer c.FlushCommands()
	s := &h.sweep
	scratch := h.chipScratch[chip]
	for k, i := range h.byChip[chip] {
		if k%ctxCheckStride == 0 {
			if cerr := s.ctx.Err(); cerr != nil {
				return cerr
			}
		}
		if h.plane != nil {
			if ferr := h.plane.BeforeRead(s.attempt, s.rows[i]); ferr != nil {
				h.slots[chip] = &ChipFault{Chip: chip, Op: "read", Row: s.rows[i], Err: ferr}
				return nil
			}
		}
		c.ReadRow(s.rows[i].Bank, s.rows[i].Row, scratch)
		h.perIndex[i] = appendMismatches(h.perIndex[i][:0], s.rows[i], s.data[i], scratch, h.lastMask)
	}
	return nil
}

// readRowsDeltaShard is readRowsShard for a pass that just wrote each
// listed row from its own data entry: the chip's stored row is the
// expected data, so the failure delta of the read (ReadRowDelta) is
// exactly the mismatch set, with no row copy and no compare — the
// same shortcut readFullShard takes.
//
//parbor:hotpath
func (h *Host) readRowsDeltaShard(chip int) error {
	c := h.mod.Chip(chip)
	defer c.FlushCommands()
	s := &h.sweep
	delta := h.chipDelta[chip]
	for k, i := range h.byChip[chip] {
		if k%ctxCheckStride == 0 {
			if cerr := s.ctx.Err(); cerr != nil {
				return cerr
			}
		}
		r := s.rows[i]
		if h.plane != nil {
			if ferr := h.plane.BeforeRead(s.attempt, r); ferr != nil {
				h.slots[chip] = &ChipFault{Chip: chip, Op: "read", Row: r, Err: ferr}
				return nil
			}
		}
		fails := h.perIndex[i][:0]
		if c.ReadRowDelta(r.Bank, r.Row, delta) != 0 {
			fails = appendDeltaFails(fails, r, delta)
		}
		h.perIndex[i] = fails
	}
	return nil
}

// probeRowsShard reads back the probed cell of each of one chip's
// bucketed rows (the read half of a probe pass) and records whether it
// differs from the entry's own data.
//
//parbor:hotpath
func (h *Host) probeRowsShard(chip int) error {
	c := h.mod.Chip(chip)
	defer c.FlushCommands()
	s := &h.sweep
	for k, i := range h.byChip[chip] {
		if k%ctxCheckStride == 0 {
			if cerr := s.ctx.Err(); cerr != nil {
				return cerr
			}
		}
		r := s.rows[i]
		if h.plane != nil {
			if ferr := h.plane.BeforeRead(s.attempt, r); ferr != nil {
				h.slots[chip] = &ChipFault{Chip: chip, Op: "read", Row: r, Err: ferr}
				return nil
			}
		}
		col := int(s.cells[i].Col)
		want := s.data[i][col>>6] >> (uint(col) & 63) & 1
		h.probeHit[i] = c.ReadCell(r.Bank, r.Row, col) != want
	}
	return nil
}

// ReadRowInto reads a row's current contents into dst without any
// retention wait — the plain load path, used e.g. to save live data
// before an online test epoch (package onlinetest). An attached plane
// may reject the read, in which case the error is a *ChipFault. Each
// call is a distinct attempt, so a transient fault on a saved row
// clears on retry.
func (h *Host) ReadRowInto(ctx context.Context, r Row, dst []uint64) error {
	if err := h.checkRow(r); err != nil {
		return err
	}
	if len(dst) != h.mod.Geometry().Words() {
		return fmt.Errorf("memctl: dst has %d words, want %d", len(dst), h.mod.Geometry().Words())
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if h.plane != nil {
		attempt := h.attempts
		h.attempts++
		if ferr := h.plane.BeforeRead(attempt, r); ferr != nil {
			return &ChipFault{Chip: r.Chip, Op: "read", Row: r, Err: ferr}
		}
	}
	c := h.mod.Chip(r.Chip)
	c.ReadRow(r.Bank, r.Row, dst)
	c.FlushCommands()
	return nil
}

// Verify waits, then reads the rows and diffs them against expected —
// without writing first. Test sequences whose semantics separate
// writes from delayed reads (March elements, package march) need
// this; Pass would re-charge the cells and mask retention failures.
// It counts as one test. The expected buffers follow the same
// aliasing contract as Pass data (read-only, sharable), and
// cancellation and fault-plane rejections behave as in Pass.
func (h *Host) Verify(ctx context.Context, rows []Row, expected [][]uint64, waitMs float64) ([]BitAddr, error) {
	if err := h.checkRows(rows, expected, waitMs, "expected"); err != nil {
		return nil, err
	}
	attempt := h.attempts
	h.attempts++
	h.bucketRows(rows)
	if waitMs > 0 {
		h.mod.Wait(waitMs)
		h.autoRefreshPaused()
	}
	h.passes++
	readStart := h.startClock()
	fails, err := h.readAndDiff(ctx, attempt, rows, expected, false)
	h.resetSweep()
	if err != nil {
		return nil, h.failPass(err)
	}
	h.passDone(readStart, readStart, len(rows))
	return fails, nil
}

// FullPass writes src's pattern to every row of every chip, waits
// waitMs, reads everything back, and returns the mismatched bit
// addresses, sorted by (chip, bank, row, col) regardless of the host's
// parallelism: each chip's sweep visits its banks, rows and columns in
// ascending order, and the per-chip results are concatenated in chip
// order. It counts as one test. See RowSource for the source contract;
// cancellation and fault-plane rejections behave as in Pass, and a
// panic in src surfaces as the pass's error when it fires on a pool
// worker (on the serial path it propagates as a panic).
func (h *Host) FullPass(ctx context.Context, src RowSource, waitMs float64) ([]BitAddr, error) {
	if waitMs < 0 {
		return nil, fmt.Errorf("memctl: negative wait %v", waitMs)
	}
	g := h.mod.Geometry()
	attempt := h.attempts
	h.attempts++
	passStart := h.startClock()
	h.clearFaultSlots()
	h.sweep.ctx = ctx
	h.sweep.attempt = attempt
	h.sweep.src = src
	err := h.forEachChip(ctx, h.writeFullFn)
	if err == nil {
		err = chipFaultsError(h.slots)
	}
	if err != nil {
		h.resetSweep()
		return nil, h.failPass(err)
	}
	h.observeSince(SeriesWriteSweep, passStart)
	h.mod.Wait(waitMs)
	h.passes++

	readStart := h.startClock()
	h.clearFaultSlots()
	err = h.forEachChip(ctx, h.readFullFn)
	if err == nil {
		err = chipFaultsError(h.slots)
	}
	h.resetSweep()
	if err != nil {
		return nil, h.failPass(err)
	}
	total := 0
	for _, f := range h.perChip {
		total += len(f)
	}
	var fails []BitAddr
	if total > 0 {
		fails = make([]BitAddr, 0, total)
		for _, f := range h.perChip {
			fails = append(fails, f...)
		}
	}
	h.passDone(passStart, readStart, h.mod.Chips()*g.RowCount())
	return fails, nil
}

// writeFullShard writes the source pattern to every row of one chip.
//
//parbor:hotpath
func (h *Host) writeFullShard(chip int) error {
	c := h.mod.Chip(chip)
	defer c.FlushCommands()
	g := h.mod.Geometry()
	words := g.Words()
	s := &h.sweep
	buf := h.chipPattern[chip]
	n := 0
	for bank := 0; bank < g.Banks; bank++ {
		for row := 0; row < g.Rows; row++ {
			if n%ctxCheckStride == 0 {
				if cerr := s.ctx.Err(); cerr != nil {
					return cerr
				}
			}
			n++
			r := Row{Chip: chip, Bank: bank, Row: row}
			if h.plane != nil {
				if ferr := h.plane.BeforeWrite(s.attempt, r); ferr != nil {
					h.slots[chip] = &ChipFault{Chip: chip, Op: "write", Row: r, Err: ferr}
					return nil
				}
			}
			data := s.src(r, buf)
			if len(data) != words {
				return fmt.Errorf("memctl: row source returned %d words for chip %d, want %d", len(data), chip, words)
			}
			c.WriteRow(bank, row, data)
		}
	}
	return nil
}

// readFullShard reads every row of one chip back and diffs it against
// the source pattern. The per-chip failure buffer reuses its capacity
// from the previous pass; FullPass copies it into the merged
// result before returning.
//
// The full pass wrote every row from the same source immediately
// before this sweep, so the expected data IS the stored data — the
// diff of the read-back against it is exactly the chip's failure
// delta. ReadRowDelta hands that delta over directly (same draws,
// same observability commands as ReadRow), skipping the row copy and
// the word-by-word compare; clean rows, the steady state of a healthy
// module, cost nothing beyond the failure evaluation itself.
//
//parbor:hotpath
func (h *Host) readFullShard(chip int) error {
	c := h.mod.Chip(chip)
	defer c.FlushCommands()
	g := h.mod.Geometry()
	s := &h.sweep
	delta := h.chipDelta[chip]
	fails := h.perChip[chip][:0]
	n := 0
	for bank := 0; bank < g.Banks; bank++ {
		for row := 0; row < g.Rows; row++ {
			if n%ctxCheckStride == 0 {
				if cerr := s.ctx.Err(); cerr != nil {
					return cerr
				}
			}
			n++
			r := Row{Chip: chip, Bank: bank, Row: row}
			if h.plane != nil {
				if ferr := h.plane.BeforeRead(s.attempt, r); ferr != nil {
					h.slots[chip] = &ChipFault{Chip: chip, Op: "read", Row: r, Err: ferr}
					return nil
				}
			}
			if c.ReadRowDelta(bank, row, delta) != 0 {
				fails = appendDeltaFails(fails, r, delta)
			}
		}
	}
	h.perChip[chip] = fails
	return nil
}

// appendDeltaFails appends one BitAddr per set bit of delta, in
// ascending column order — the same order appendMismatches produces —
// and re-zeroes the words it consumes, restoring the all-zero scratch
// invariant. Toggles cannot touch the padding bits of the last word
// (every failure mode addresses a column below Cols), so no mask is
// needed.
//
//parbor:hotpath
func appendDeltaFails(fails []BitAddr, r Row, delta []uint64) []BitAddr {
	for w := range delta {
		diff := delta[w]
		if diff == 0 {
			continue
		}
		delta[w] = 0
		for diff != 0 {
			bit := bits.TrailingZeros64(diff)
			fails = append(fails, BitAddr{
				Chip: int16(r.Chip),
				Bank: int16(r.Bank),
				Row:  int32(r.Row),
				Col:  int32(w*64 + bit),
			})
			diff &= diff - 1
		}
	}
	return fails
}

// appendMismatches diffs the read-back buffer got against want and
// appends one BitAddr per flipped bit, in ascending column order.
// lastMask is the geometry's LastWordMask: when Cols is not a
// multiple of 64, the padding bits of the final word carry whatever
// the writer left there and must never surface as failures.
//
//parbor:hotpath
func appendMismatches(fails []BitAddr, r Row, want, got []uint64, lastMask uint64) []BitAddr {
	n := len(got)
	if n == 0 {
		return fails
	}
	want = want[:n] // one bounds check here instead of one per word
	// Quick scan: OR-accumulate the XOR of the full words four at a
	// time, straight-line ALU with no per-word branching. The steady
	// state of a healthy row is "no bits differ", so the extraction
	// pass below — with its per-word last-word test and per-bit
	// appends — runs only for the rare rows that actually flipped.
	last := n - 1
	var acc uint64
	w := 0
	for ; w+4 <= last; w += 4 {
		acc |= (got[w] ^ want[w]) | (got[w+1] ^ want[w+1]) |
			(got[w+2] ^ want[w+2]) | (got[w+3] ^ want[w+3])
	}
	for ; w < last; w++ {
		acc |= got[w] ^ want[w]
	}
	acc |= (got[last] ^ want[last]) & lastMask
	if acc == 0 {
		return fails
	}
	for w := 0; w < n; w++ {
		diff := got[w] ^ want[w]
		if w == last {
			// Padding bits of the final word carry whatever the writer
			// left there and must never surface as failures.
			diff &= lastMask
		}
		for diff != 0 {
			bit := bits.TrailingZeros64(diff)
			fails = append(fails, BitAddr{
				Chip: int16(r.Chip),
				Bank: int16(r.Bank),
				Row:  int32(r.Row),
				Col:  int32(w*64 + bit),
			})
			diff &= diff - 1
		}
	}
	return fails
}

// TimeEstimate returns the wall-clock duration the passes performed
// so far would take on real hardware, per the Appendix model: each
// pass writes the module, waits the refresh interval, and reads the
// module back.
func (h *Host) TimeEstimate(t Timing) time.Duration {
	per := t.ModulePassTime(h.mod.Geometry(), h.mod.Chips(), h.waitMs)
	return time.Duration(h.passes) * per
}
