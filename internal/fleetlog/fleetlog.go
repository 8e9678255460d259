// Package fleetlog is the fleet's storage layer: an append-only,
// segment-based, compressed on-disk failure-event log plus a streaming
// groupby/classify pipeline that folds the log into per-module
// fault-mode classifications with bounded memory.
//
// The write side is called by the fleet scheduler after every
// *completed* transactional epoch: one Event records every failing
// cell observed in that epoch (new and repeat observations alike), so
// the log carries the repeat-observation signal the DDR4 field studies
// use to split transient from permanent faults. The read side streams
// events back one record at a time — a segment is never materialized —
// and the classifier keeps O(modules) state, spilling sorted key runs
// to disk and merging them when a log is too large for its memory
// budget. The first Analyze to read a sealed segment whose keys fit a
// scan worker's share of that budget writes them beside it as a
// summary, which later queries merge instead of decoding the segment
// again.
//
// On-disk layout (see DESIGN.md section 12 for the framing diagrams):
//
//	<dir>/00000001.seg, 00000002.seg, ...   rotated at SegmentBytes
//	<dir>/00000001.sum, ...                 beside each sealed segment
//	                                        (written to a .tmp file and
//	                                        renamed into place)
//
//	segment = "PBFL" magic (4 bytes) | version (1 byte) | records...
//	record  = payload length (uvarint) | payload | CRC-32/IEEE of
//	          payload (4 bytes little-endian)
//
//	payload = module id (uvarint length + bytes)
//	        | epoch (uvarint)
//	        | failure list (memctl.AppendAddrs): count (uvarint),
//	          then each failure as four zigzag-uvarint deltas
//	          (chip, bank, row, col) from the previous one, distinct
//	          and in canonical ascending order
//
//	summary = "PBFS" magic | version | the segment's byte length,
//	          record count and FNV-1a digest of its record CRCs
//	          | module names, ascending, with each one's key counts
//	          and block sizes | every module's distinct epochs
//	          | every module's distinct cells, each with its distinct
//	          epochs | CRC-32/IEEE of all before
//
// A summary is used only when it decodes strictly and its length,
// record count and digest match the segment as read; otherwise the
// segment is decoded, so a missing, torn or stale summary costs time,
// never a different rollup. Spill runs use the same format.
//
// Every record is independently framed, so a torn tail — the daemon
// killed mid-write, a disk that lied about a flush — truncates cleanly:
// the reader recovers every intact record and reports exactly one
// truncation per damaged segment instead of corrupting the stream, and
// the writer truncates the damage away before appending again.
//
// fleetlog is a serving-layer package like internal/fleet: it may use
// the filesystem and maps freely (it is outside the parborvet
// simdeterminism scope). Its *outputs* are still deterministic: the
// classifier's rollup is a pure function of the event *set*, invariant
// under event order, segment boundaries, and memory budget — the
// differential-oracle suite enforces this bit-for-bit.
package fleetlog

import "parbor/internal/memctl"

// Event is one completed epoch's failure observations for one module.
// Fails lists every cell that failed during the epoch — repeats of
// previously known failures included — because repeat observation
// across epochs is what separates permanent faults from transient
// ones. An epoch that observed no failures still logs an (empty)
// event: "tested and clean" is information, and the per-module epoch
// counts anchor the fault rates.
type Event struct {
	// Module is the fleet module ID (ModuleSpec.ID).
	Module string `json:"module"`
	// Epoch is the module's completed-epoch number (1-based, as
	// counted by onlinetest.Scheduler). Epoch numbers survive
	// checkpoint/resume, so one module's events stay unique across
	// daemon restarts; a crash-replayed epoch re-logs the identical
	// event and deduplicates away in the classifier.
	Epoch int `json:"epoch"`
	// Fails are the cells observed failing this epoch. The codec
	// writes them as a set: sorted (ascending chip, bank, row, col)
	// and without repeats.
	Fails []memctl.BitAddr `json:"fails,omitempty"`
}

// Fault-mode labels, following the taxonomy of the DDR4 field studies
// (single-bit / single-row / single-column / scattered multi-cell
// populations, grouped per chip-bank). internal/fleet's live rollup
// uses the same labels so a replayed log is comparable to the live
// fleet, field for field.
const (
	ModeSingleBit    = "single_bit"
	ModeSingleRow    = "single_row"
	ModeSingleColumn = "single_column"
	ModeMultiCell    = "multi_cell"
)
