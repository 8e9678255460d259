package fleetlog

import (
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"parbor/internal/faultfs"
	"parbor/internal/memctl"
)

// openInjected opens a writer over a fresh injector with the given
// config, with fast retry settings for tests.
func openInjected(t *testing.T, dir string, cfg faultfs.InjectorConfig, attempts int) (*Writer, *faultfs.Injector) {
	t.Helper()
	inj, err := faultfs.NewInjector(faultfs.OS{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := OpenWriter(dir, WriterOptions{
		FS:            inj,
		RetryAttempts: attempts,
		RetryBackoff:  time.Microsecond,
	})
	if err != nil {
		t.Fatalf("OpenWriter: %v", err)
	}
	return w, inj
}

// readClean drains a directory with a clean reader and asserts no
// tails were torn.
func readClean(t *testing.T, dir string) []Event {
	t.Helper()
	evs, truncs := readAll(t, dir)
	if len(truncs) != 0 {
		t.Fatalf("unexpected truncations: %+v", truncs)
	}
	return evs
}

// TestWriterRetryAbsorbsTransientFaults appends through an injector
// throwing frequent transient short writes and ENOSPC; the bounded
// retry must absorb all of them (deterministic seed, single appender)
// and the log must decode byte-perfect afterwards.
func TestWriterRetryAbsorbsTransientFaults(t *testing.T) {
	dir := t.TempDir()
	w, inj := openInjected(t, dir, faultfs.InjectorConfig{
		Seed:           11,
		WriteErrProb:   0.25,
		ShortWriteProb: 0.25,
	}, 8)
	events := testEvents()
	for _, ev := range events {
		if err := w.Append(ev); err != nil {
			t.Fatalf("Append through transient faults: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if inj.Faults() == 0 {
		t.Fatal("injector faulted nothing; the retry path was never exercised")
	}
	got := readClean(t, dir)
	if len(got) != len(events) {
		t.Fatalf("recovered %d events, wrote %d", len(got), len(events))
	}
	for i := range got {
		if got[i].Module != events[i].Module || got[i].Epoch != events[i].Epoch {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, got[i], events[i])
		}
	}
}

// TestWriterSyncFailurePropagatesAndSticks: a failed fsync means the
// unsynced tail is suspect, so the writer must refuse all further
// work, not just report the one error.
func TestWriterSyncFailurePropagatesAndSticks(t *testing.T) {
	dir := t.TempDir()
	w, _ := openInjected(t, dir, faultfs.InjectorConfig{Seed: 1, SyncErrProb: 1}, 3)
	if err := w.Append(testEvents()[0]); err != nil {
		t.Fatalf("Append: %v", err)
	}
	serr := w.Sync()
	if !errors.Is(serr, faultfs.ErrSync) {
		t.Fatalf("Sync: %v, want ErrSync", serr)
	}
	if aerr := w.Append(testEvents()[1]); !errors.Is(aerr, faultfs.ErrSync) {
		t.Fatalf("Append after failed Sync: %v, want the sticky sync error", aerr)
	}
	if serr2 := w.Sync(); !errors.Is(serr2, faultfs.ErrSync) {
		t.Fatalf("second Sync: %v, want the sticky sync error", serr2)
	}
	w.Close()
	// Reopening re-verifies the tail and continues: the event whose
	// durability was in doubt either survived intact or its tear is
	// truncated away — this test's fsync "failure" dropped no pages, so
	// it must be intact.
	w2, err := OpenWriter(dir, WriterOptions{})
	if err != nil {
		t.Fatalf("reopen after sync failure: %v", err)
	}
	if err := w2.Append(testEvents()[1]); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readClean(t, dir); len(got) != 2 {
		t.Fatalf("recovered %d events, want 2", len(got))
	}
}

// TestWriterPersistentFaultPoisons: a Break outage (volume gone) is
// not retryable; the writer must fail fast and stay failed.
func TestWriterPersistentFaultPoisons(t *testing.T) {
	dir := t.TempDir()
	w, inj := openInjected(t, dir, faultfs.InjectorConfig{}, 5)
	if err := w.Append(testEvents()[0]); err != nil {
		t.Fatal(err)
	}
	inj.Break(nil)
	before := inj.Ops()
	err := w.Append(testEvents()[1])
	if !errors.Is(err, faultfs.ErrIO) {
		t.Fatalf("Append during outage: %v, want ErrIO", err)
	}
	if inj.Ops() != before+1 {
		t.Fatalf("persistent fault consumed %d ops; the retry loop must not spin on it", inj.Ops()-before)
	}
	inj.Heal()
	if err := w.Append(testEvents()[1]); err == nil {
		t.Fatal("poisoned writer accepted an append after Heal; the tail was never re-verified")
	}
}

// TestGCKeepsNewestAndNeverTheTail covers the retention policy: the
// oldest segments go, the newest keep survive, and the active tail is
// immortal even at keep <= 0.
func TestGCKeepsNewestAndNeverTheTail(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force one rotation per event or so.
	w, err := OpenWriter(dir, WriterOptions{SegmentBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range testEvents() {
		if err := w.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(faultfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 4 {
		t.Fatalf("only %d segments; the fixture no longer rotates enough to test GC", len(segs))
	}
	tail := segs[len(segs)-1]

	removed, err := GC(faultfs.OS{}, dir, 2)
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	wantRemoved := segs[:len(segs)-2]
	if len(removed) != len(wantRemoved) {
		t.Fatalf("GC removed %v, want %v", removed, wantRemoved)
	}
	for i := range removed {
		if removed[i] != wantRemoved[i] {
			t.Fatalf("GC removed %v, want %v", removed, wantRemoved)
		}
	}
	left, _ := listSegments(faultfs.OS{}, dir)
	if len(left) != 2 || left[1] != tail {
		t.Fatalf("segments after GC: %v (tail %s)", left, tail)
	}

	// keep<=0 clamps to 1: the tail survives.
	if _, err := GC(faultfs.OS{}, dir, 0); err != nil {
		t.Fatal(err)
	}
	left, _ = listSegments(faultfs.OS{}, dir)
	if len(left) != 1 || left[0] != tail {
		t.Fatalf("GC(0) left %v, want only the tail %s", left, tail)
	}
	// Idempotent on a single-segment log.
	if removed, err := GC(faultfs.OS{}, dir, 0); err != nil || len(removed) != 0 {
		t.Fatalf("GC on tail-only log: removed %v, err %v", removed, err)
	}

	// The survivors still stream cleanly, and a reopened writer still
	// appends to the surviving tail.
	readClean(t, dir)
	w2, err := OpenWriter(dir, WriterOptions{})
	if err != nil {
		t.Fatalf("reopen after GC: %v", err)
	}
	if err := w2.Append(testEvents()[0]); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAnalyzeThroughInjectedReadFault: an unreadable sector must be a
// hard error, not silently folded as a shorter log, whether one worker
// scans the segments or several do.
func TestAnalyzeThroughInjectedReadFault(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, WriterOptions{SegmentBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range testEvents() {
		if err := w.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	withGOMAXPROCS(t, []int{1, 4}, func(t *testing.T, procs int) {
		inj, err := faultfs.NewInjector(faultfs.OS{}, faultfs.InjectorConfig{Seed: 3, ReadErrProb: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, aerr := Analyze(t.Context(), dir, ClassifierConfig{FS: inj}); !errors.Is(aerr, faultfs.ErrIO) {
			t.Fatalf("Analyze over unreadable log: %v, want ErrIO", aerr)
		}
	})
}

// TestSpillWriteErrorRemovesPartialRun: a spill run that fails to write
// never joins the set's runs, so the classifier's cleanup cannot find
// it; spill itself must remove it. A caller-named spill dir is empty
// once the classifier closes, whether the write failed in a buffered
// Write (a run larger than the write buffer) or in the final Flush.
func TestSpillWriteErrorRemovesPartialRun(t *testing.T) {
	for _, maxKeys := range []int{8, 4096} {
		inj, err := faultfs.NewInjector(faultfs.OS{}, faultfs.InjectorConfig{Seed: 3, WriteErrProb: 1})
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(t.TempDir(), "spill")
		c, err := newSerialClassifier(ClassifierConfig{MaxKeys: maxKeys, SpillDir: dir, FS: inj})
		if err != nil {
			t.Fatal(err)
		}
		var oerr error
		for epoch := 1; oerr == nil && epoch <= 2*maxKeys; epoch++ {
			oerr = c.observe(Event{Module: "m", Epoch: epoch, Fails: []memctl.BitAddr{{Row: 1}, {Row: 2}}})
		}
		if !errors.Is(oerr, faultfs.ErrNoSpace) {
			t.Fatalf("MaxKeys %d: Observe: %v, want the injected ENOSPC", maxKeys, oerr)
		}
		c.close()
		left, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(left) != 0 {
			t.Fatalf("MaxKeys %d: spill dir keeps %d files after Close, first %s", maxKeys, len(left), left[0].Name())
		}
	}
}

// closeTracer wraps an injector and records, for every close of a
// file opened for writing, how many operations the injector had traced
// by then.
type closeTracer struct {
	*faultfs.Injector
	mu     sync.Mutex
	closes []closeAt
}

type closeAt struct {
	path  string
	after int // injector operations traced before the close
}

func (c *closeTracer) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	f, err := c.Injector.OpenFile(name, flag, perm)
	if err != nil || flag&(os.O_WRONLY|os.O_RDWR) == 0 {
		return f, err
	}
	return &tracedClose{File: f, c: c, path: name}, nil
}

type tracedClose struct {
	faultfs.File
	c    *closeTracer
	path string
}

func (f *tracedClose) Close() error {
	f.c.mu.Lock()
	f.c.closes = append(f.c.closes, closeAt{f.path, f.c.Ops()})
	f.c.mu.Unlock()
	return f.File.Close()
}

// TestWriterSyncsSegmentsBeforeClosing: over an injector trace of a
// rotating writer that is reopened once, every segment handle is
// closed only after an fsync of that segment that follows its last
// write, and the directory is fsynced after every segment is created.
// A drain that persists state after a Sync can then rely on every
// logged epoch being durable, rotated segments included.
func TestWriterSyncsSegmentsBeforeClosing(t *testing.T) {
	inj, err := faultfs.NewInjector(faultfs.OS{}, faultfs.InjectorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fsys := &closeTracer{Injector: inj}
	dir := t.TempDir()
	events := genEvents(rand.New(rand.NewSource(6)), 4, 80)
	for _, part := range [][]Event{events[:40], events[40:]} {
		w, err := OpenWriter(dir, WriterOptions{FS: fsys, SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range part {
			if err := w.Append(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	trace := inj.Trace()
	segCloses := 0
	for _, c := range fsys.closes {
		if filepath.Ext(c.path) != segSuffix {
			continue
		}
		segCloses++
		lastWrite, synced := 0, false
		for _, op := range trace[:c.after] {
			if op.Path != c.path {
				continue
			}
			switch op.Kind {
			case faultfs.OpWrite, faultfs.OpTruncate:
				lastWrite, synced = op.Seq, false
			case faultfs.OpSync:
				synced = op.Seq > lastWrite
			}
		}
		if !synced {
			t.Fatalf("%s closed after op %d without a sync after its last write (op %d)", filepath.Base(c.path), c.after, lastWrite)
		}
	}
	if segCloses < 4 {
		t.Fatalf("only %d segment closes traced; the writer did not rotate", segCloses)
	}
	for i, op := range trace {
		if op.Kind != faultfs.OpOpenFile || filepath.Ext(op.Path) != segSuffix {
			continue
		}
		created := true
		for _, prev := range trace[:i] {
			if prev.Path == op.Path {
				created = false // a reopened tail, not a new segment
			}
		}
		dirSynced := false
		for _, later := range trace[i+1:] {
			if later.Kind == faultfs.OpSyncDir && later.Path == dir {
				dirSynced = true
				break
			}
		}
		if created && !dirSynced {
			t.Fatalf("%s was created at op %d and the directory never synced after", filepath.Base(op.Path), op.Seq)
		}
	}
}
