package fleetlog

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"

	"parbor/internal/faultfs"
)

// CompactStats reports what a compaction did.
type CompactStats struct {
	Events      int `json:"events"`
	Truncations int `json:"truncations"`
	SegmentsIn  int `json:"segments_in"`
	SegmentsOut int `json:"segments_out"`
}

// Compact rewrites a log directory into a fresh one: every intact
// record is re-encoded canonically into new segments of the requested
// size, each sealed one with its summary where Analyze would write one
// (its keys fit a scan worker's share of the default key budget), and
// torn tails are dropped (they carry no recoverable data).
// The source is untouched; dst must not already contain segments, so
// a half-finished compaction cannot be mistaken for a complete one.
// Both sides go through opts.FS.
func Compact(srcDir, dstDir string, opts WriterOptions) (CompactStats, error) {
	opts = opts.withDefaults()
	fsys := opts.FS
	var st CompactStats
	if existing, err := listSegments(fsys, dstDir); err == nil && len(existing) > 0 {
		return st, fmt.Errorf("fleetlog: destination %s already holds %d segments", dstDir, len(existing))
	} else if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return st, fmt.Errorf("fleetlog: listing destination: %w", err)
	}
	srcSegs, err := listSegments(fsys, srcDir)
	if err != nil {
		return st, fmt.Errorf("fleetlog: listing source: %w", err)
	}
	st.SegmentsIn = len(srcSegs)

	it, err := OpenIter(fsys, srcDir)
	if err != nil {
		return st, err
	}
	//parbor:droperr read-side iterator close over the source log; the destination writer's errors are what matter and are checked
	defer it.Close()
	w, err := OpenWriter(dstDir, opts)
	if err != nil {
		return st, err
	}
	for {
		ev, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			w.Close()
			return st, err
		}
		if err := w.Append(ev); err != nil {
			w.Close()
			return st, err
		}
		st.Events++
	}
	if err := w.Close(); err != nil {
		return st, err
	}
	st.Truncations = len(it.Truncations())
	outSegs, err := listSegments(fsys, dstDir)
	if err != nil {
		return st, err
	}
	st.SegmentsOut = len(outSegs)
	// Every segment but the last is sealed: analyzing the log now
	// summarizes them, as its first Analyze otherwise would.
	if _, err := Analyze(context.Background(), dstDir, ClassifierConfig{FS: fsys}); err != nil {
		return st, fmt.Errorf("fleetlog: summarizing the compacted log: %w", err)
	}
	return st, nil
}

// GC removes the oldest segments of a log directory beyond a
// retention count, each with its summary, returning the segment
// filenames it deleted. The newest
// keep segments survive, and the active tail segment (the
// highest-numbered one, which a live Writer may still be appending
// to) is never removed even when keep <= 0. GC is the retention
// policy for logs that have been compacted or rolled up elsewhere:
// it deletes data, so callers run it only after the rollup pipeline
// has consumed the old segments. Pass faultfs.OS{} for the real
// filesystem.
func GC(fsys faultfs.FS, dir string, keep int) ([]string, error) {
	if keep < 1 {
		keep = 1 // the active tail is never collectable
	}
	segs, err := listSegments(fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("fleetlog: listing log dir: %w", err)
	}
	if len(segs) <= keep {
		return nil, nil
	}
	var removed []string
	for _, name := range segs[:len(segs)-keep] {
		// The summary goes first: a crash between the two removals
		// leaves a segment without a summary, which Analyze scans,
		// rather than a summary without a segment.
		sum := sumName(segSeq(name))
		if err := fsys.Remove(filepath.Join(dir, sum)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return removed, fmt.Errorf("fleetlog: removing %s: %w", sum, err)
		}
		if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
			return removed, fmt.Errorf("fleetlog: removing %s: %w", name, err)
		}
		removed = append(removed, name)
	}
	return removed, nil
}
