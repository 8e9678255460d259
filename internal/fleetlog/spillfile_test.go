package fleetlog

import (
	"fmt"
	"io/fs"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"parbor/internal/faultfs"
)

// openCounter is a faultfs.FS that counts the files open through it,
// now and at the peak, and the writes to spill files.
type openCounter struct {
	faultfs.FS
	open, peak, spillWrites atomic.Int64
}

func (c *openCounter) Open(name string) (faultfs.File, error) { return c.track(c.FS.Open(name)) }

func (c *openCounter) Create(name string) (faultfs.File, error) { return c.track(c.FS.Create(name)) }

func (c *openCounter) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	return c.track(c.FS.OpenFile(name, flag, perm))
}

func (c *openCounter) track(f faultfs.File, err error) (faultfs.File, error) {
	if err != nil {
		return nil, err
	}
	n := c.open.Add(1)
	for p := c.peak.Load(); n > p && !c.peak.CompareAndSwap(p, n); p = c.peak.Load() {
	}
	return &countedFile{File: f, c: c}, nil
}

type countedFile struct {
	faultfs.File
	c      *openCounter
	closed atomic.Bool
}

func (f *countedFile) Write(p []byte) (int, error) {
	f.countSpill()
	return f.File.Write(p)
}

func (f *countedFile) WriteAt(p []byte, off int64) (int, error) {
	f.countSpill()
	return f.File.WriteAt(p, off)
}

func (f *countedFile) countSpill() {
	if strings.HasSuffix(f.Name(), ".run") {
		f.c.spillWrites.Add(1)
	}
}

func (f *countedFile) Close() error {
	if f.closed.CompareAndSwap(false, true) {
		f.c.open.Add(-1)
	}
	return f.File.Close()
}

// TestAnalyzeOpenFilesBounded: the files a query holds open do not
// grow with its spills. On a log without summaries, under a key budget
// of 4 that spills well over a thousand runs, at most 2W files are open
// at once for W scan workers (a segment and a spill file each), plus
// the summaries the query wrote, and every one is closed when Analyze
// returns. The rollup is the oracle's.
func TestAnalyzeOpenFilesBounded(t *testing.T) {
	const maxKeys = 4
	r := rand.New(rand.NewSource(25))
	dir, segs := writeSegmented(t, genEvents(r, 8, 2500), 512)
	if len(segs) < 8 {
		t.Fatalf("log has %d segments, want at least 8", len(segs))
	}
	want := logOracle(t, dir)
	withGOMAXPROCS(t, []int{1, 2, 4}, func(t *testing.T, procs int) {
		cp := copyLog(t, dir)
		fsys := &openCounter{FS: faultfs.OS{}}
		got, err := Analyze(t.Context(), cp, ClassifierConfig{MaxKeys: maxKeys, SpillDir: t.TempDir(), FS: fsys})
		if err != nil {
			t.Fatalf("Analyze: %v", err)
		}
		diffRollups(t, fmt.Sprintf("procs %d", procs), got, want)
		if n := fsys.spillWrites.Load(); n < 1000 {
			t.Fatalf("the query spilled %d runs, want at least 1000", n)
		}
		w := min(procs, len(segs), maxKeys)
		sums := len(sumFiles(t, cp))
		if peak := fsys.peak.Load(); peak > int64(2*w+sums) {
			t.Fatalf("%d files open at once over %d spilled runs, want at most 2*%d workers + %d summaries",
				peak, fsys.spillWrites.Load(), w, sums)
		}
		t.Logf("%d workers, %d summaries: %d files open at most over %d spilled runs", w, sums, fsys.peak.Load(), fsys.spillWrites.Load())
		if n := fsys.open.Load(); n != 0 {
			t.Fatalf("%d files still open after Analyze returned", n)
		}
	})
}
