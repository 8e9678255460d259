// Command parborlog is the offline analyzer for parbord's failure
// event log (-log-dir): it folds an append-only fleetlog directory —
// arbitrarily many daemon incarnations' worth of epochs, including
// torn tails from crashes — into the parbor/fleetlog-rollup/v1
// fault-mode classification, without ever holding the event stream in
// memory.
//
// Usage:
//
//	parborlog -dir /var/lib/parbord/log              # rollup JSON to stdout
//	parborlog -dir /var/lib/parbord/log -dump        # raw events, JSON lines
//	parborlog -dir /var/lib/parbord/log -compact out # rewrite minus torn tails
//	parborlog -dir /var/lib/parbord/log -gc 4        # drop all but 4 newest segments
//
// -mem-budget bounds the classifier's in-memory key set; past it,
// sorted runs spill to -spill (default: the system temp dir), one
// spill file per scan worker, and are merged, so a log of any size
// classifies in bounded memory (plus, past 2560 runs on disk at the
// default budget, 8 KiB of read windows per further run; DESIGN.md
// section 12) and with one open file per worker. The segments are
// scanned on up to GOMAXPROCS workers, which share the budget rather
// than each taking a copy of it; a segment whose summary still
// matches it is merged from the summary instead of being decoded. The
// rollup is a pure function of the event set: order, duplicated
// replays, segment boundaries, and the memory budget cannot change a
// byte of the output.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"parbor/internal/faultfs"
	"parbor/internal/fleetlog"
)

func main() {
	var (
		dir       = flag.String("dir", "", "fleetlog directory to analyze (required)")
		dump      = flag.Bool("dump", false, "print raw events as JSON lines instead of the rollup")
		compact   = flag.String("compact", "", "rewrite the log into this directory (drops torn tails) instead of analyzing")
		memBudget = flag.Int("mem-budget", 0, "classifier in-memory key budget before spilling, shared by the scan workers (0 = default)")
		spill     = flag.String("spill", "", "directory for the scan workers' spill files, one per worker, created if missing (empty = system temp dir)")
		segBytes  = flag.Int64("segment-bytes", 0, "segment size for -compact output (0 = default)")
		gc        = flag.Int("gc", -1, "garbage-collect the log to this many newest segments (the active tail always survives); -1 = off")
	)
	flag.Parse()

	opts := options{
		dir:       *dir,
		dump:      *dump,
		compact:   *compact,
		memBudget: *memBudget,
		spill:     *spill,
		segBytes:  *segBytes,
	}
	// -gc 0 is a meaningful request (keep only the active tail), so
	// the off state is the -1 default, not the zero value.
	if *gc >= 0 {
		opts.gc, opts.gcOn = *gc, true
	}
	// SIGINT and SIGTERM stop a rollup's scan and merge workers; the
	// spill files are removed before run returns.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, opts, os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "parborlog: %v\n", err)
		os.Exit(1)
	}
}

type options struct {
	dir       string
	dump      bool
	compact   string
	memBudget int
	spill     string
	segBytes  int64
	gc        int
	gcOn      bool
}

func run(ctx context.Context, opts options, stdout io.Writer) error {
	if opts.dir == "" {
		return errors.New("-dir is required")
	}
	modes := 0
	for _, on := range []bool{opts.dump, opts.compact != "", opts.gcOn} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		return errors.New("-dump, -compact, and -gc are mutually exclusive")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	switch {
	case opts.compact != "":
		return runCompact(opts, stdout)
	case opts.dump:
		return runDump(opts, stdout)
	case opts.gcOn:
		return runGC(opts, stdout)
	default:
		return runRollup(ctx, opts, stdout)
	}
}

// runGC applies the retention policy and prints what was removed.
func runGC(opts options, stdout io.Writer) error {
	keep := opts.gc
	if keep < 1 {
		keep = 1 // GC never removes the active tail
	}
	removed, err := fleetlog.GC(faultfs.OS{}, opts.dir, keep)
	if err != nil {
		return err
	}
	if removed == nil {
		removed = []string{}
	}
	return writeJSON(stdout, map[string]any{"removed": removed, "kept": keep})
}

// runRollup streams the log through the out-of-core classifier and
// prints the rollup.
func runRollup(ctx context.Context, opts options, stdout io.Writer) error {
	r, err := fleetlog.Analyze(ctx, opts.dir, fleetlog.ClassifierConfig{
		MaxKeys:  opts.memBudget,
		SpillDir: opts.spill,
	})
	if err != nil {
		return err
	}
	return writeJSON(stdout, r)
}

// runDump prints every intact event as one JSON object per line, plus
// a trailing truncation report on stderr when the log has torn tails.
func runDump(opts options, stdout io.Writer) error {
	it, err := fleetlog.OpenIter(faultfs.OS{}, opts.dir)
	if err != nil {
		return err
	}
	//parbor:droperr read-side iterator close; dump output is already complete or errored
	defer it.Close()
	enc := json.NewEncoder(stdout)
	for {
		ev, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	for _, tr := range it.Truncations() {
		fmt.Fprintf(os.Stderr, "parborlog: torn tail in %s at byte %d (recovered)\n", tr.Segment, tr.CleanBytes)
	}
	return nil
}

// runCompact rewrites the log into a fresh directory and prints the
// stats.
func runCompact(opts options, stdout io.Writer) error {
	stats, err := fleetlog.Compact(opts.dir, opts.compact, fleetlog.WriterOptions{SegmentBytes: opts.segBytes})
	if err != nil {
		return err
	}
	return writeJSON(stdout, stats)
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
