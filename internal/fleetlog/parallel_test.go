package fleetlog

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parbor/internal/faultfs"
)

// withGOMAXPROCS runs f at each GOMAXPROCS value in turn and restores
// the original setting afterwards.
func withGOMAXPROCS(t *testing.T, procs []int, f func(t *testing.T, procs int)) {
	t.Helper()
	orig := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(orig) })
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		t.Run(fmt.Sprintf("procs%d", p), func(t *testing.T) { f(t, p) })
	}
}

// writeSegmented writes events into a fresh log of small segments and
// returns the directory and its segment names, in order.
func writeSegmented(t *testing.T, events []Event, segBytes int64) (string, []string) {
	t.Helper()
	dir := t.TempDir()
	w, err := OpenWriter(dir, WriterOptions{SegmentBytes: segBytes})
	if err != nil {
		t.Fatalf("OpenWriter: %v", err)
	}
	for _, ev := range events {
		if err := w.Append(ev); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := listSegments(faultfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	return dir, segs
}

// recordEnds returns the end offset of every record frame in a
// segment's bytes.
func recordEnds(t *testing.T, data []byte) []int {
	t.Helper()
	var ends []int
	for off := segHeaderLen; off < len(data); {
		plen, n := binary.Uvarint(data[off:])
		if n <= 0 {
			t.Fatalf("bad record length at offset %d", off)
		}
		off += n + int(plen) + 4
		ends = append(ends, off)
	}
	return ends
}

// marshal is the rollup's canonical bytes.
func marshal(t *testing.T, r *Rollup) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestAnalyzeParallelMatchesSerial: the segment-parallel Analyze gives
// the byte-identical rollup, truncation count included, that one
// Classifier fed the same log serially gives, and that the naive
// oracle gives, at every worker count and key budget. The log has many
// small segments, replayed duplicates, and torn tails in two segments
// in the middle of the log.
func TestAnalyzeParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	events := genEvents(r, 12, 400)
	for i := 0; i < 60; i++ {
		events = append(events, events[r.Intn(len(events))])
	}
	r.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
	dir, segs := writeSegmented(t, events, 512)
	if len(segs) < 8 {
		t.Fatalf("log has %d segments, want at least 8", len(segs))
	}
	for _, k := range []int{2, len(segs) / 2} {
		path := filepath.Join(dir, segs[k])
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, st.Size()-3); err != nil {
			t.Fatal(err)
		}
	}

	// The serial reference: the events that survive, in log order,
	// through one classifier and through the oracle.
	survived, truncs := readAll(t, dir)
	if len(truncs) != 2 {
		t.Fatalf("serial read recovered %d torn tails, want 2", len(truncs))
	}
	serial := classifyEvents(t, survived, ClassifierConfig{SpillDir: t.TempDir()})
	serial.Truncations = len(truncs)
	oracle := oracleRollup(survived)
	oracle.Truncations = len(truncs)
	want := marshal(t, serial)
	if got := marshal(t, oracle); got != want {
		t.Fatalf("serial classifier and oracle disagree:\nserial %s\noracle %s", want, got)
	}

	withGOMAXPROCS(t, []int{1, 2, 8}, func(t *testing.T, procs int) {
		for _, maxKeys := range []int{4, 64, 0} {
			got, err := Analyze(dir, ClassifierConfig{MaxKeys: maxKeys, SpillDir: t.TempDir()})
			if err != nil {
				t.Fatalf("MaxKeys %d: Analyze: %v", maxKeys, err)
			}
			if g := marshal(t, got); g != want {
				t.Fatalf("MaxKeys %d: parallel rollup differs from serial:\ngot  %s\nwant %s", maxKeys, g, want)
			}
		}
	})
}

// corruptCRC flips a byte of the checksum of record k of a segment, so
// reading it is hard corruption (it is not the segment's last record,
// so it cannot pass for a torn tail).
func corruptCRC(t *testing.T, path string, k int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := recordEnds(t, data)
	if k >= len(ends)-1 {
		t.Fatalf("%s has %d records; record %d is not mid-segment", path, len(ends), k)
	}
	data[ends[k]-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// serialError is the error a serial scan of the log meets first.
func serialError(t *testing.T, dir string) error {
	t.Helper()
	it, err := OpenIter(faultfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var ev Event
	for {
		if err := it.nextInto(&ev); err != nil {
			if err == io.EOF {
				t.Fatal("serial scan met no error")
			}
			return err
		}
	}
}

// runFiles lists the spill runs left in dir.
func runFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	var runs []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".run") {
			runs = append(runs, e.Name())
		}
	}
	return runs
}

// TestAnalyzeErrorIsSerialError: with two corrupt segments, Analyze
// returns the lower-numbered one's error, the one a serial scan meets
// first, at every worker count, even though the higher one's
// corruption sits at its first record and the lower one's near its
// end. Every worker's spill runs are removed on the error path.
func TestAnalyzeErrorIsSerialError(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	dir, segs := writeSegmented(t, genEvents(r, 8, 600), 512)
	if len(segs) < 8 {
		t.Fatalf("log has %d segments, want at least 8", len(segs))
	}
	lo := filepath.Join(dir, segs[3])
	data, err := os.ReadFile(lo)
	if err != nil {
		t.Fatal(err)
	}
	corruptCRC(t, lo, len(recordEnds(t, data))-2)
	corruptCRC(t, filepath.Join(dir, segs[4]), 0)
	want := serialError(t, dir)
	if !strings.Contains(want.Error(), segs[3]) {
		t.Fatalf("serial error %q does not name %s", want, segs[3])
	}

	withGOMAXPROCS(t, []int{1, 2, 4, 8}, func(t *testing.T, procs int) {
		for rep := 0; rep < 10; rep++ {
			spill := filepath.Join(t.TempDir(), "spill")
			_, err := Analyze(dir, ClassifierConfig{MaxKeys: 8, SpillDir: spill})
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("rep %d: Analyze error %v, want the serial scan's %v", rep, err, want)
			}
			if left := runFiles(t, spill); len(left) != 0 {
				t.Fatalf("rep %d: spill dir keeps %d runs after the error, first %s", rep, len(left), left[0])
			}
		}
	})
}

// gatedFS holds back every open of a segment after a bad one until the
// bad segment's handle is closed, and counts the segment opens that
// start after that close: segments claimed after the scan stopped.
type gatedFS struct {
	faultfs.FS
	index  map[string]int // segment name -> position in the log
	bad    int
	closed chan struct{}
	once   sync.Once
	late   atomic.Int32
}

func (g *gatedFS) Open(name string) (faultfs.File, error) {
	i, seg := g.index[filepath.Base(name)]
	if seg && i > g.bad {
		select {
		case <-g.closed:
			g.late.Add(1)
		default:
			select {
			case <-g.closed:
			case <-time.After(10 * time.Second):
			}
		}
	}
	f, err := g.FS.Open(name)
	if err != nil || !seg || i != g.bad {
		return f, err
	}
	return &gatedFile{File: f, fs: g}, nil
}

type gatedFile struct {
	faultfs.File
	fs *gatedFS
}

func (f *gatedFile) Close() error {
	err := f.File.Close()
	f.fs.once.Do(func() { close(f.fs.closed) })
	return err
}

// TestAnalyzeStopsClaimingAfterError: once a segment fails, no worker
// claims another segment. Opens of later segments wait until the
// failing segment is released, which a worker does only after stopping
// the scan; after that, the only segments opened may be ones the other
// workers had already claimed, at most one each.
func TestAnalyzeStopsClaimingAfterError(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	dir, segs := writeSegmented(t, genEvents(r, 8, 1200), 256)
	if len(segs) < 32 {
		t.Fatalf("log has %d segments, want at least 32", len(segs))
	}
	const bad = 1
	corruptCRC(t, filepath.Join(dir, segs[bad]), 0)
	index := make(map[string]int, len(segs))
	for i, s := range segs {
		index[s] = i
	}
	withGOMAXPROCS(t, []int{1, 2, 8}, func(t *testing.T, procs int) {
		g := &gatedFS{FS: faultfs.OS{}, index: index, bad: bad, closed: make(chan struct{})}
		if _, err := Analyze(dir, ClassifierConfig{SpillDir: t.TempDir(), FS: g}); err == nil || !strings.Contains(err.Error(), segs[bad]) {
			t.Fatalf("Analyze error %v, want %s's checksum error", err, segs[bad])
		}
		if late := int(g.late.Load()); late > procs-1 {
			t.Fatalf("%d segments opened after the scan stopped, want at most %d", late, procs-1)
		}
	})
}
