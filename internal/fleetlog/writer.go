package fleetlog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"parbor/internal/faultfs"
)

const (
	segMagic   = "PBFL"
	segVersion = 1
	// segHeaderLen is the magic plus the version byte.
	segHeaderLen = len(segMagic) + 1
	// segSuffix names segment files; the numeric prefix orders them.
	segSuffix = ".seg"
)

// WriterOptions tunes a Writer.
type WriterOptions struct {
	// SegmentBytes rotates to a fresh segment once the current one
	// reaches this size; <= 0 selects 4 MiB. A record is never split
	// across segments, so segments may overshoot by one record.
	SegmentBytes int64
	// FS is the filesystem seam the writer persists through; nil
	// selects the real filesystem (faultfs.OS). Tests and the parbord
	// -diskchaos-seed soak swap in a faultfs.Injector.
	FS faultfs.FS
	// RetryAttempts bounds how many times Append retries a transient
	// I/O fault (short write, spurious ENOSPC) after repairing the
	// segment back to the last record boundary; <= 0 selects 3.
	// Persistent faults and exhausted budgets poison the writer.
	RetryAttempts int
	// RetryBackoff is the pause before each retry, doubling per
	// attempt; <= 0 selects 2ms. Kept tiny: the writer holds its lock
	// across the backoff, so a long pause would stall every appender.
	RetryBackoff time.Duration
}

// withDefaults normalizes the option zero values.
func (o WriterOptions) withDefaults() WriterOptions {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.FS == nil {
		o.FS = faultfs.OS{}
	}
	if o.RetryAttempts <= 0 {
		o.RetryAttempts = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 2 * time.Millisecond
	}
	return o
}

// segHeader is the constant 5-byte segment prelude.
func segHeader() []byte { return append([]byte(segMagic), segVersion) }

// segName formats a segment sequence number as a filename.
func segName(seq int) string { return fmt.Sprintf("%08d%s", seq, segSuffix) }

// segSeq parses a segment filename's sequence number, or -1.
func segSeq(name string) int {
	if !strings.HasSuffix(name, segSuffix) {
		return -1
	}
	n, err := strconv.Atoi(strings.TrimSuffix(name, segSuffix))
	if err != nil || n <= 0 {
		return -1
	}
	return n
}

// listSegments returns the directory's segment filenames in sequence
// order.
func listSegments(fsys faultfs.FS, dir string) ([]string, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && segSeq(e.Name()) > 0 {
			names = append(names, e.Name())
		}
	}
	sort.Slice(names, func(i, j int) bool { return segSeq(names[i]) < segSeq(names[j]) })
	return names, nil
}

// Writer appends failure events to a segmented log directory. It is
// safe for concurrent use: the fleet's worker pool appends from many
// goroutines, and each record is written with a single write call so
// concurrent appends never interleave bytes. A segment is synced
// before it is closed, and the directory at the first sync point after
// a segment is created. Summaries of sealed segments are Analyze's to
// write (summary.go), not the Writer's: the append path pays nothing
// for them.
type Writer struct {
	mu   sync.Mutex
	dir  string
	opts WriterOptions
	fsys faultfs.FS
	f    faultfs.File //parbor:guardedby mu
	seq  int          //parbor:guardedby mu
	size int64        //parbor:guardedby mu
	buf  []byte       //parbor:guardedby mu — whole-record scratch, reused across appends
	err  error        //parbor:guardedby mu — sticky: a writer that failed mid-record must not continue
	// dirDirty marks a segment created since the directory was last
	// synced.
	dirDirty bool //parbor:guardedby mu
}

// OpenWriter opens (creating if needed) a log directory for append.
// If the last segment has a torn tail — a partial record from a crash
// mid-write — the damage is truncated away first, so the writer only
// ever appends after a clean record boundary.
func OpenWriter(dir string, opts WriterOptions) (*Writer, error) {
	opts = opts.withDefaults()
	fsys := opts.FS
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleetlog: creating log dir: %w", err)
	}
	segs, err := listSegments(fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("fleetlog: listing log dir: %w", err)
	}
	w := &Writer{dir: dir, opts: opts, fsys: fsys}
	if len(segs) == 0 {
		if err := w.openSegmentLocked(1); err != nil {
			return nil, err
		}
		return w, nil
	}
	last := segs[len(segs)-1]
	w.seq = segSeq(last)
	clean, err := cleanLength(fsys, filepath.Join(dir, last))
	if err != nil {
		return nil, err
	}
	f, err := fsys.OpenFile(filepath.Join(dir, last), os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fleetlog: opening segment: %w", err)
	}
	if err := f.Truncate(clean); err != nil {
		f.Close()
		return nil, fmt.Errorf("fleetlog: truncating torn tail of %s: %w", last, err)
	}
	if clean < int64(segHeaderLen) {
		// The crash tore the segment header itself; rewrite it.
		if _, err := f.WriteAt(segHeader(), 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("fleetlog: rewriting segment header: %w", err)
		}
		clean = int64(segHeaderLen)
	}
	if _, err := f.Seek(clean, 0); err != nil {
		f.Close()
		return nil, err
	}
	w.f, w.size = f, clean
	return w, nil
}

// cleanLength scans a segment and returns the byte length of its
// longest clean prefix: the segment header plus every fully framed,
// checksum-verified record. A segment that is corrupt outright (bad
// magic, unknown version) is an error — recovery must not silently
// destroy a file that was never a fleetlog segment.
func cleanLength(fsys faultfs.FS, path string) (int64, error) {
	sr, err := openSegment(fsys, path)
	if err != nil {
		return 0, err
	}
	defer sr.close()
	for {
		_, err := sr.next()
		if err == nil {
			continue
		}
		if torn, ok := err.(errTorn); ok {
			return torn.cleanLen, nil
		}
		if err == errSegEnd {
			return sr.off, nil
		}
		return 0, err
	}
}

// openSegmentLocked creates the next segment file and makes it
// current. Callers hold w.mu (or own the still-unpublished writer).
func (w *Writer) openSegmentLocked(seq int) error {
	f, err := w.fsys.OpenFile(filepath.Join(w.dir, segName(seq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("fleetlog: creating segment: %w", err)
	}
	w.f, w.seq, w.size, w.dirDirty = f, seq, 0, true
	if err := w.writeRecordLocked(segHeader()); err != nil {
		f.Close()
		w.f = nil
		return fmt.Errorf("fleetlog: writing segment header: %w", err)
	}
	w.size = int64(segHeaderLen)
	return nil
}

// Append encodes ev and appends it as one framed record, rotating to
// a new segment when the current one is full. The record reaches the
// OS in a single write call; Append returns once the OS has it.
//
// A transient I/O fault (short write, spurious ENOSPC) is absorbed by
// a bounded retry: the segment is first repaired — truncated back to
// the pre-record boundary so a torn prefix cannot survive — and the
// whole record is written again. Persistent faults, failed repairs,
// and exhausted retry budgets poison the writer; the daemon's
// log-degraded mode takes over from there.
func (w *Writer) Append(ev Event) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.f == nil {
		return fmt.Errorf("fleetlog: writer is closed")
	}
	// Frame into the scratch buffer: length, payload, checksum.
	// The payload is encoded first (after a length-placeholder region)
	// so its length is known; the uvarint length is then stamped
	// immediately before it.
	const maxLen = binary.MaxVarintLen64
	buf := append(w.buf[:0], make([]byte, maxLen)...)
	buf, err := appendEvent(buf, ev)
	if err != nil {
		return err
	}
	payload := buf[maxLen:]
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("fleetlog: event payload %d bytes exceeds record limit", len(payload))
	}
	lenBytes := binary.AppendUvarint(nil, uint64(len(payload)))
	start := maxLen - len(lenBytes)
	copy(buf[start:], lenBytes)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	w.buf = buf[:0]
	rec := buf[start:]

	if w.size > int64(segHeaderLen) && w.size+int64(len(rec)) > w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			w.err = err
			return err
		}
	}
	if err := w.writeRecordLocked(rec); err != nil {
		w.err = err
		return w.err
	}
	w.size += int64(len(rec))
	return nil
}

// writeRecordLocked lands one framed record at the current boundary,
// retrying transient faults after repairing the tail. Called with the
// lock held.
func (w *Writer) writeRecordLocked(rec []byte) error {
	backoff := w.opts.RetryBackoff
	var err error
	for attempt := 0; attempt < w.opts.RetryAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		var n int
		n, err = w.f.Write(rec)
		if err == nil {
			return nil
		}
		err = fmt.Errorf("fleetlog: appending record: %w", err)
		if !faultfs.IsTransient(err) {
			return err
		}
		if n > 0 {
			// A short write left a torn prefix; cut the segment back to
			// the record boundary before retrying, or the retried record
			// would land after garbage.
			if terr := w.f.Truncate(w.size); terr != nil {
				return fmt.Errorf("fleetlog: repairing tail after %v: %w", err, terr)
			}
			if _, serr := w.f.Seek(w.size, 0); serr != nil {
				return fmt.Errorf("fleetlog: reseeking after repair: %w", serr)
			}
		}
	}
	return fmt.Errorf("fleetlog: retries exhausted: %w", err)
}

// rotateLocked syncs and closes the current segment and opens the
// next one. Called with the lock held.
func (w *Writer) rotateLocked() error {
	if err := w.syncLocked(); err != nil {
		return err
	}
	err := w.f.Close()
	w.f = nil
	if err != nil {
		return fmt.Errorf("fleetlog: closing segment: %w", err)
	}
	return w.openSegmentLocked(w.seq + 1)
}

// syncLocked flushes the current segment, and the directory if a
// segment was created since it was last synced, to stable storage.
func (w *Writer) syncLocked() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("fleetlog: syncing segment: %w", err)
	}
	if w.dirDirty {
		if err := w.fsys.SyncDir(w.dir); err != nil {
			return fmt.Errorf("fleetlog: syncing log dir: %w", err)
		}
		w.dirDirty = false
	}
	return nil
}

// Sync flushes the current segment to stable storage. A Sync failure
// poisons the writer: the kernel may have dropped any dirty page since
// the last successful sync, so the unsynced tail is suspect and
// appending after it would build on bytes that may not exist after a
// crash. Callers reopen the directory (which re-verifies the tail) to
// continue.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.f == nil {
		return nil
	}
	if err := w.syncLocked(); err != nil {
		w.err = err
		return w.err
	}
	return nil
}

// Close syncs and closes the current segment; a failed sync poisons
// the writer as Sync does. A writer that is already poisoned only
// releases its segment. Append after Close fails; reopening the
// directory with OpenWriter continues the log.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	if w.err == nil {
		if err := w.syncLocked(); err != nil {
			w.err = err
			w.f.Close()
			w.f = nil
			return err
		}
	}
	err := w.f.Close()
	w.f = nil
	return err
}
